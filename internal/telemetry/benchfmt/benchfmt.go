// Package benchfmt defines the versioned on-disk format of the repo's
// benchmark trajectory: one BENCH_<name>.json record per tracked sweep
// (wall time, cells/sec, cache behavior, allocation footprint, latency
// quantiles) plus the comparator `make bench-check` runs against the
// committed baseline. The trajectory turns the performance history that
// previously lived as prose in CHANGES.md (43s → 0.35s, 3.3x kernel
// wins) into a machine-checkable CI artifact: a regression beyond the
// tolerance fails the build.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"cwsp/internal/telemetry"
)

// SchemaVersion is bumped on incompatible record changes; Read rejects
// versions it does not understand so the trajectory stays diffable.
const SchemaVersion = 1

// Quantiles is a latency digest in one unit.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Host fingerprints where a record was measured. Wall-clock comparisons
// are only enforced between records with an equal fingerprint (or under
// CompareOptions.Strict) — a baseline from one machine must not fail CI
// on a slower one.
type Host struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	CPU       string `json:"cpu,omitempty"` // model name, best effort
}

// Equal reports whether two fingerprints identify comparable machines.
func (h Host) Equal(o Host) bool {
	return h.OS == o.OS && h.Arch == o.Arch && h.CPUs == o.CPUs && h.CPU == o.CPU
}

// CurrentHost fingerprints the running machine.
func CurrentHost() Host {
	return Host{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		CPU:       cpuModel(),
	}
}

// cpuModel reads the CPU model name where the platform exposes one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "model name") {
			if _, after, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(after)
			}
		}
	}
	return ""
}

// Record is one point of the bench trajectory.
type Record struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name"` // trajectory name: BENCH_<name>.json
	Tool          string `json:"tool"`
	Salt          string `json:"salt,omitempty"` // runner code-version salt
	Scale         string `json:"scale,omitempty"`
	// Experiments lists the experiment IDs the sweep ran.
	Experiments []string `json:"experiments,omitempty"`
	Host        Host     `json:"host"`

	// Sweep execution profile.
	Jobs        int     `json:"jobs"`
	WallMS      int64   `json:"wall_ms"` // pool wall time
	Cells       int64   `json:"cells"`
	CacheHits   int64   `json:"cache_hits"`
	Shared      int64   `json:"shared,omitempty"`
	Executed    int64   `json:"executed"`
	CellsPerSec float64 `json:"cells_per_sec"` // executed cells per pool-wall second

	// Allocation footprint of the whole invocation (runtime.MemStats
	// deltas around the sweep).
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`

	// CellLatencyUS digests per-executed-cell wall latency; zero when the
	// sweep was fully cached (nothing executed).
	CellLatencyUS Quantiles `json:"cell_latency_us"`
	// PersistLatCycles digests the simulator's store→durable latency when
	// a telemetry-enabled run contributed one (optional).
	PersistLatCycles *Quantiles `json:"persist_lat_cycles,omitempty"`

	// Service profiles a cwspload run against a cwspd daemon (optional;
	// only trajectories produced by the load generator carry it).
	Service *ServiceProfile `json:"service,omitempty"`

	// Kernel profiles the simulation-kernel comparison `make bench-kernel`
	// runs (optional; only kernel trajectories carry it).
	Kernel *KernelProfile `json:"kernel,omitempty"`
}

// KernelProfile is one in-process comparison of the simulation kernels:
// per-cell instruction throughput for the reference oracle, the threaded
// production kernel, and the threaded kernel with telemetry attached,
// measured back to back in one process. The ratio columns are same-run
// ratios — every variant saw the same machine state — so they are gated
// host-independently, while the absolute Minstr/s columns are only
// enforced between matching host fingerprints.
type KernelProfile struct {
	Cells []KernelCell `json:"cells"`
}

// KernelCell is one workload × scheme × core-count point of the kernel
// comparison.
type KernelCell struct {
	// Name is the cell label (workload_scheme_xCores, e.g. compute_base_x1).
	Name string `json:"name"`
	// Cycles is the simulated cycle count — identical across kernels by
	// the equivalence contract, so a drift here is a correctness bug, not
	// a performance change.
	Cycles int64 `json:"cycles"`
	// Instrs is the per-run instruction count throughput normalizes over.
	Instrs int64 `json:"instrs"`
	// ReferenceMinstrS, ThreadedMinstrS, and TelemetryMinstrS are millions
	// of simulated instructions per wall second on the reference kernel,
	// the threaded kernel, and the threaded kernel with telemetry enabled
	// at its default sample interval (best of the repeated batches).
	ReferenceMinstrS float64 `json:"reference_minstr_s"`
	ThreadedMinstrS  float64 `json:"threaded_minstr_s"`
	TelemetryMinstrS float64 `json:"telemetry_minstr_s"`
	// Speedup is ThreadedMinstrS / ReferenceMinstrS.
	Speedup float64 `json:"speedup"`
	// TelemetryOverhead is ThreadedMinstrS / TelemetryMinstrS: the wall
	// time of a telemetry-enabled run relative to a plain one.
	TelemetryOverhead float64 `json:"telemetry_overhead"`
	// DispatchBound marks the cell whose loop is register-resident: the
	// one place dispatch overhead is the bottleneck and the threaded
	// kernel's speedup floor (KernelDispatchFloor) is enforced. On memory-
	// or persist-bound cells the shared machinery caps the ratio (Amdahl),
	// so their speedups are tracked but only gated against the baseline.
	DispatchBound bool `json:"dispatch_bound,omitempty"`
}

// Cell returns the named cell, or nil.
func (k *KernelProfile) Cell(name string) *KernelCell {
	for i := range k.Cells {
		if k.Cells[i].Name == name {
			return &k.Cells[i]
		}
	}
	return nil
}

// ServiceProfile is the service-side view of one load-generator run: how
// the daemon held up under concurrent campaign traffic.
type ServiceProfile struct {
	// Clients is the concurrent client count the generator sustained.
	Clients int `json:"clients"`
	// Requests counts campaigns submitted and completed; Dropped counts
	// campaigns lost (a correct run has 0 — rejected submissions retry
	// until accepted); Rejected429 counts backpressure rejections absorbed
	// along the way.
	Requests    int64 `json:"requests"`
	Dropped     int64 `json:"dropped"`
	Rejected429 int64 `json:"rejected_429,omitempty"`
	// RequestsPerSec and CellsPerSec measure end-to-end throughput over
	// the generator's wall time.
	RequestsPerSec float64 `json:"requests_per_sec"`
	// WarmHitRatio is the cache-hit ratio over the warm fraction of the
	// traffic (repeat campaigns must be served from the shared cache).
	WarmHitRatio float64 `json:"warm_hit_ratio"`
	// ReqLatencyUS digests end-to-end request latency (submit → campaign
	// done), microseconds.
	ReqLatencyUS Quantiles `json:"req_latency_us"`
	// QueueDepthMax/Mean proxy admission-queue contention, sampled over
	// the run.
	QueueDepthMax  int64   `json:"queue_depth_max"`
	QueueDepthMean float64 `json:"queue_depth_mean"`
}

// New builds a record stamped with the schema version and current host.
func New(name, tool string) *Record {
	return &Record{SchemaVersion: SchemaVersion, Name: name, Tool: tool, Host: CurrentHost()}
}

// FromRunner fills the sweep-profile fields from a runner manifest digest.
func (r *Record) FromRunner(info *telemetry.RunnerInfo) {
	if info == nil {
		return
	}
	r.Jobs = info.Jobs
	r.WallMS = info.WallMS
	r.Cells = info.Cells
	r.CacheHits = info.CacheHits
	r.Shared = info.Shared
	r.Executed = info.Executed
	if info.WallMS > 0 && info.Executed > 0 {
		r.CellsPerSec = float64(info.Executed) / (float64(info.WallMS) / 1000)
	}
	if q := info.CellLatencyUS; q != nil {
		r.CellLatencyUS = Quantiles{P50: q.P50, P95: q.P95, P99: q.P99}
	}
}

// Validate checks the invariants readers rely on.
func (r *Record) Validate() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("benchfmt: record schema v%d, this build reads v%d", r.SchemaVersion, SchemaVersion)
	}
	if r.Name == "" {
		return fmt.Errorf("benchfmt: record missing name")
	}
	return nil
}

// Write emits the record as indented JSON.
func (r *Record) Write(w io.Writer) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the record to path.
func (r *Record) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses and validates a record.
func Read(rd io.Reader) (*Record, error) {
	var r Record
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("benchfmt: parse record: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// ReadFile reads a record from path.
func ReadFile(path string) (*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// NameFromPath derives the trajectory name from a BENCH_<name>.json path
// ("BENCH_smoke.json" → "smoke"; anything else uses the bare stem).
func NameFromPath(path string) string {
	base := filepath.Base(path)
	base = strings.TrimSuffix(base, filepath.Ext(base))
	return strings.TrimPrefix(base, "BENCH_")
}
