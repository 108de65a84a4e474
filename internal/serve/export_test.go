package serve

import "vodcluster/internal/resilience"

// ScanNow and LandNow run the repairer's scan and a finished copy's landing
// on the calling goroutine, without the timers in between, so a test can
// interleave them with failures deterministically.
func (r *Repairer) ScanNow() []resilience.Copy { return r.scan() }

func (r *Repairer) LandNow(c resilience.Copy) string { return r.land(c, true) }

// Conns returns the number of client connections the ingress holds open.
func (g *Ingress) Conns() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.conns)
}
