package exp

import "time"

// Timed runs f n times and returns the wall-clock seconds of each run, in
// run order. Whole sweeps are timed externally because per-run wall time must
// stay out of metrics.Result, whose values are compared bit-for-bit by the
// determinism tests. f receives the run index so callers can vary seeds or
// labels per repetition.
func Timed(n int, f func(i int) error) ([]float64, error) {
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return secs, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}
