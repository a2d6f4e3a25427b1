package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"sync"

	"cwsp/internal/sim"
)

// pinnedJSON holds the simulated outputs every run is checked against.
// Regenerate with `perfbench -workload <w> -pin perfbench/pinned.json`
// only when the simulator's results are meant to change.
//
//go:embed pinned.json
var pinnedJSON []byte

// Pinned is the reference for the output checks. Simulated results do not
// depend on host speed, so one file serves every host.
type Pinned struct {
	mu sync.Mutex
	// Sweep maps a sweep cell ("app/scheme") to its full stats; the
	// observe workload checks its manifests against the same entries.
	Sweep map[string]sim.Stats `json:"sweep"`
	// RecoverGolden maps a recover target to its Recoverable golden run.
	RecoverGolden map[string]sim.Stats `json:"recover_golden"`
	// RecoverOutcomes is the outcome of each recover op under the default
	// seed, in op order.
	RecoverOutcomes []string `json:"recover_outcomes"`
}

// loadPinned reads the pin file being recorded when there is one (so
// pinning one workload keeps the others' entries), else the embedded copy.
func loadPinned(pinPath string) (*Pinned, error) {
	data := pinnedJSON
	if pinPath != "" {
		b, err := os.ReadFile(pinPath)
		switch {
		case err == nil:
			data = b
		case errors.Is(err, fs.ErrNotExist):
		default:
			return nil, err
		}
	}
	p := &Pinned{}
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("pinned outputs: %w", err)
	}
	if p.Sweep == nil {
		p.Sweep = map[string]sim.Stats{}
	}
	if p.RecoverGolden == nil {
		p.RecoverGolden = map[string]sim.Stats{}
	}
	return p, nil
}

func (p *Pinned) save(path string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkStats compares got with the pinned entry m[key], or records it
// when pinning.
func (p *Pinned) checkStats(pin bool, m map[string]sim.Stats, key string, got sim.Stats) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pin {
		m[key] = got
		return nil
	}
	want, ok := m[key]
	if !ok {
		return fmt.Errorf("%s: no pinned stats", key)
	}
	return diffStats(key, want, got)
}

// diffStats names the first field in which got differs from want.
func diffStats(key string, want, got sim.Stats) error {
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			return fmt.Errorf("%s: %s = %v, pinned %v", key, wv.Type().Field(i).Name, gv.Field(i), wv.Field(i))
		}
	}
	return nil
}
