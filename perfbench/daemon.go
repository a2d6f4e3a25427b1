package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cwsp/internal/service"
)

// daemonWarm are the sweep campaigns prewarmed in set-up; timed resubmits
// (without a key, so each is a new campaign) are served from the store.
// fig06, fig08 and fig19 read fig13's cells, so the second costs no extra
// prewarming.
var daemonWarm = []service.Spec{
	{Kind: service.KindSweep, Experiments: []string{"fig13"}, Scale: "smoke"},
	{Kind: service.KindSweep, Experiments: []string{"fig13", "fig06", "fig08", "fig19"}, Scale: "smoke"},
}

// daemonKeyed are campaigns submitted under an idempotency key in set-up;
// timed resubmits under the same key are answered by the original.
var daemonKeyed = []service.Spec{
	{Kind: service.KindTorture, Key: "perfbench-torture", Workloads: []string{"tatp"}, Cells: 2, Seed: 11},
	{Kind: service.KindLitmus, Key: "perfbench-litmus", Cells: 2, Seed: 12},
	{Kind: service.KindSweep, Key: "perfbench-sweep", Experiments: []string{"fig06"}, Scale: "smoke"},
}

// daemonColdTargets are the workloads cold single-cell torture campaigns
// pick from.
var daemonColdTargets = []string{"tatp", "rb", "kmeans", "radix"}

// daemonRoundSeconds is the host time of one round of daemonMix on the
// reference host; -seconds sizes the op list with it.
const daemonRoundSeconds = 0.07

// daemonEpochRounds bounds the rounds one daemon serves. The daemon keeps
// every campaign in memory (about a third of a megabyte each, mostly its
// runner.Progress occupancy ring), so one daemon serving a whole
// -seconds 20 list would grow past a gigabyte. The timed phase therefore
// runs the list in epochs of at most this many rounds, each on a fresh
// daemon set up with the clock stopped.
const daemonEpochRounds = 120

// DaemonOp is one client request.
type DaemonOp struct {
	Kind string // "warm", "keyed" or "cold"
	// Index selects the daemonWarm or daemonKeyed original.
	Index int
	// Cold campaigns: a single-cell litmus (Workload == "") or torture
	// campaign with a seed no other op of the run uses.
	Workload string
	Seed     int64
}

// daemonMix is one round's requests: each warm original twice, two keyed
// resubmits and four cold campaigns (two litmus, two torture). The 4:4
// warm:cold split of the unkeyed requests is service.RunLoad's default
// WarmFrac of 0.5, the traffic cwspload offers unless told otherwise.
// RunLoad sends no keyed requests; two in ten is a choice, enough to time
// the idempotency path without letting it dominate.
var daemonMix = []string{"warm", "warm", "warm", "warm", "keyed", "keyed", "cold", "cold", "cold", "cold"}

// DaemonOps is the op list: per round the requests of daemonMix, rotated
// by a seeded offset. Keyed resubmits rotate over the keyed originals; cold campaigns
// alternate litmus and torture, rotate the torture target and take a seed
// no other op of the run uses.
func DaemonOps(seed int64, seconds int) []DaemonOp {
	n := len(daemonMix)
	var out []DaemonOp
	keyed, cold := 0, 0
	for r := 0; r < rounds(seconds, daemonRoundSeconds, n); r++ {
		for _, k := range rotation(seed, "daemon", r, n) {
			op := DaemonOp{Kind: daemonMix[k]}
			switch op.Kind {
			case "warm":
				op.Index = k % len(daemonWarm)
			case "keyed":
				op.Index = keyed % len(daemonKeyed)
				keyed++
			default:
				op.Seed = mix(seed, "daemon-cold", cold)
				if cold%2 == 1 {
					op.Workload = daemonColdTargets[(cold/2)%len(daemonColdTargets)]
				}
				cold++
			}
			out = append(out, op)
		}
	}
	return out
}

// Spec is the campaign the op submits.
func (op DaemonOp) Spec() service.Spec {
	switch op.Kind {
	case "warm":
		return daemonWarm[op.Index]
	case "keyed":
		return daemonKeyed[op.Index]
	}
	if op.Workload != "" {
		return service.Spec{Kind: service.KindTorture, Workloads: []string{op.Workload}, Cells: 1, Seed: op.Seed}
	}
	return service.Spec{Kind: service.KindLitmus, Cells: 1, Seed: op.Seed}
}

type daemonState struct {
	dir    string
	svc    *service.Service
	srv    *service.Server
	base   string
	client *http.Client
	warm   [][]byte // result bytes of the cold originals
	keyed  [][]byte
	closed bool
}

// close shuts the daemon down; closing it again does nothing.
func (d *daemonState) close() {
	if d == nil || d.closed {
		return
	}
	d.closed = true
	d.client.CloseIdleConnections()
	if err := d.srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: close server: %v\n", err)
	}
	if err := d.svc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: close service: %v\n", err)
	}
	os.RemoveAll(d.dir)
	// The caller may keep d: drop the service so its campaigns are freed.
	d.svc, d.srv = nil, nil
}

// request is one closed-loop request: submit over HTTP, wait for the
// campaign in-process, fetch the result bytes over HTTP.
type request struct {
	view    service.View
	result  []byte
	state   string
	latency time.Duration
}

func (d *daemonState) do(t *Tracer, spec service.Spec, client string, id int) (request, error) {
	var r request
	body, err := json.Marshal(spec)
	if err != nil {
		return r, err
	}
	req, err := http.NewRequest(http.MethodPost, d.base+"/api/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.ClientHeader, client)
	t0 := time.Now()
	sp := t.Begin("service.submit", -1, id)
	resp, err := d.client.Do(req)
	if err != nil {
		t.End(sp)
		return r, err
	}
	err = json.NewDecoder(resp.Body).Decode(&r.view)
	resp.Body.Close()
	t.End(sp)
	if resp.StatusCode != http.StatusAccepted {
		return r, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	c, ok := d.svc.Get(r.view.ID)
	if !ok {
		return r, fmt.Errorf("campaign %s not found", r.view.ID)
	}
	sp = t.Begin("service.wait", -1, id)
	<-c.Done()
	t.End(sp)
	sp = t.Begin("service.result", -1, id)
	resp, err = d.client.Get(d.base + "/api/v1/campaigns/" + r.view.ID + "/result")
	if err != nil {
		t.End(sp)
		return r, err
	}
	r.result, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	t.End(sp)
	r.latency = time.Since(t0)
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("result: HTTP %d", resp.StatusCode)
	}
	r.state = c.State()
	if t != nil && r.state == service.StateDone {
		v := c.View()
		if v.StartedNS >= r.view.SubmittedNS && r.view.State == service.StateQueued {
			t.Add("service.queue_wait_ms", float64(v.StartedNS-v.SubmittedNS)/1e6)
			t.Add("service.run_ms", float64(v.FinishedNS-v.StartedNS)/1e6)
			p := c.Progress.Snapshot()
			t.Add("runner.cells", float64(p.Cells))
			t.Add("runner.hits", float64(p.Hits))
		}
	}
	return r, nil
}

// daemonSetup opens a fresh daemon (store and journal in the work dir,
// HTTP on 127.0.0.1) and prewarms it with the warm and keyed originals,
// recording spans on t.
func daemonSetup(env *Env, t *Tracer) (*daemonState, error) {
	dir, err := os.MkdirTemp(env.WorkDir, "daemon-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Options{
		CacheDir:   filepath.Join(dir, "store"),
		JournalDir: filepath.Join(dir, "journal"),
		Workers:    maxWorkers,
		Jobs:       1,
		Queue:      16,
	})
	if err != nil {
		return nil, err
	}
	d := &daemonState{dir: dir, svc: svc, srv: service.NewServer(svc),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxWorkers}}}
	addr, err := d.srv.Start("127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.base = "http://" + addr
	prewarm := func(specs []service.Spec) ([][]byte, error) {
		out := make([][]byte, len(specs))
		for i, s := range specs {
			r, err := d.do(t, s, "perfbench-setup", -1)
			if err != nil {
				return nil, fmt.Errorf("prewarm %+v: %w", s, err)
			}
			if r.state != service.StateDone {
				return nil, fmt.Errorf("prewarm %+v: campaign %s", s, r.state)
			}
			out[i] = r.result
		}
		return out, nil
	}
	if d.warm, err = prewarm(daemonWarm); err == nil {
		d.keyed, err = prewarm(daemonKeyed)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// runDaemon: an in-process cwspd under two closed-loop HTTP clients.
func runDaemon(env *Env, res *Result) error {
	ops := DaemonOps(env.Seed, env.Seconds)
	t := env.Trace
	timed := func(d *daemonState) error {
		lat := make([]float64, len(ops))
		errs := make([]error, len(ops))
		epoch := daemonEpochRounds * len(daemonMix)
		for lo := 0; lo < len(ops); lo += epoch {
			if lo > 0 {
				// The next epoch's daemon is set up off the clock, from
				// a collected heap, as set-up repetitions are.
				err := res.offClock(func() error {
					d.close()
					runtime.GC()
					var err error
					d, err = daemonSetup(env, nil)
					return err
				})
				if err != nil {
					return fmt.Errorf("epoch set-up: %w", err)
				}
			}
			hi := min(lo+epoch, len(ops))
			before := d.svc.Stats()
			var wg sync.WaitGroup
			for c := 0; c < maxWorkers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					client := fmt.Sprintf("perfbench-%d", c)
					for i := lo + c; i < hi; i += maxWorkers {
						r, err := d.do(t, ops[i].Spec(), client, i)
						lat[i] = float64(r.latency) / float64(time.Millisecond)
						if err == nil {
							err = d.checkResult(ops[i], r)
						}
						errs[i] = err
					}
				}(c)
			}
			wg.Wait()
			after := d.svc.Stats()
			if t != nil {
				if after.Journal != nil && before.Journal != nil {
					t.Add("service.journal_appends", float64(after.Journal.Appended-before.Journal.Appended))
					t.Add("service.journal_bytes", float64(after.Journal.SizeBytes-before.Journal.SizeBytes))
				}
				t.Add("service.idempotent_hits", float64(after.IdempotentHits-before.IdempotentHits))
				t.Add("service.rejected", float64(after.Rejected-before.Rejected))
				if hi == len(ops) {
					t.Add("runner.store_records", float64(after.Store.Records))
				}
			}
		}
		// The set-up daemon is closed by measure; a later epoch's is not.
		res.offClock(func() error { d.close(); return nil })
		res.LatMS = lat
		for i, err := range errs {
			if err != nil {
				res.fail("daemon op %d %+v: %v", i, ops[i], err)
			}
		}
		return nil
	}
	res.Attempted = len(ops)
	return measure(env, res, setupReps,
		func() (*daemonState, error) { return daemonSetup(env, t) },
		func(d *daemonState) { d.close() }, timed)
}

// checkResult applies the daemon output checks: the campaign is done and
// warm and keyed results are byte-identical to their originals.
func (d *daemonState) checkResult(op DaemonOp, r request) error {
	if r.state != service.StateDone {
		return fmt.Errorf("campaign %s is %s", r.view.ID, r.state)
	}
	var want []byte
	switch op.Kind {
	case "warm":
		want = d.warm[op.Index]
	case "keyed":
		want = d.keyed[op.Index]
	default:
		return nil
	}
	if !bytes.Equal(r.result, want) {
		return fmt.Errorf("campaign %s: %d result bytes differ from the original's %d", r.view.ID, len(r.result), len(want))
	}
	return nil
}
