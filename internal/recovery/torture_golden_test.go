package recovery

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata torture report snapshots")

// goldenTortureTargets are the golden campaigns' programs: two compiled
// single-core smoke workloads plus the two-core lock worker, whose
// journal interleaves both cores' records and regions.
func goldenTortureTargets(t *testing.T) []TortureTarget {
	targets := smokeTargets(t)
	q, _, err := compiler.Compile(workloads.BuildMTWorker(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return append(targets, TortureTarget{Name: "mt2", Prog: q, Specs: []sim.ThreadSpec{
		{Fn: "worker", Args: []int64{0, 12}},
		{Fn: "worker", Args: []int64{1, 12}},
	}})
}

// TestTortureReportGolden byte-compares a sealed and an unsealed campaign
// report with snapshots under testdata. The reports carry every resolved
// journal index, detection detail, outcome and diverged-address sample, so
// any change to journal storage, region retirement or fault resolution
// that moves a victim or a verdict shows up here. Regenerate with
// go test ./internal/recovery -run TortureReportGolden -update.
func TestTortureReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden torture campaigns in -short mode")
	}
	targets := goldenTortureTargets(t)
	for _, unsealed := range []bool{false, true} {
		name := "torture_sealed.json"
		if unsealed {
			name = "torture_unsealed.json"
		}
		rep, _, err := RunTorture(targets, TortureOptions{
			Seed: 1, CellsPerTarget: 16, Depth: 2, Points: 3,
			Cfg: sim.DefaultConfig(), Sch: sim.CWSP(), Unsealed: unsealed, Jobs: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := rep.WriteJSON()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
		}
		if string(want) != string(got) {
			wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
			for i := 0; i < len(wl) && i < len(gl); i++ {
				if wl[i] != gl[i] {
					t.Fatalf("%s drifted at line %d:\n  want %s\n  got  %s", name, i+1, wl[i], gl[i])
				}
			}
			t.Fatalf("%s drifted: %d lines, want %d", name, len(gl), len(wl))
		}
	}
}
