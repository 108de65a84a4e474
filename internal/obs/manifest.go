package obs

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Manifest identifies the code revision and hardware a benchmark record was
// produced on. Every ./benchmark result file carries one as its stamp, so a
// comparison can tell "the code got slower" apart from "the runner changed"
// — the first question anyone asks of a perf delta.
type Manifest struct {
	Generated  string `json:"generated"`
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Host       string `json:"host"`
}

// NewManifest collects the environment of the current process.
func NewManifest() Manifest {
	host, _ := os.Hostname()
	return Manifest{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Host:       host,
	}
}

// gitSHA returns the working tree's HEAD (short form), with a "-dirty"
// suffix when uncommitted changes exist; "unknown" outside a repository.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		sha += "-dirty"
	}
	return sha
}

// cpuModel reads the CPU model name from /proc/cpuinfo where available and
// falls back to the architecture elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
