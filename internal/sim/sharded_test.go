package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sim"
)

// Static sharding — an enclave list split round-robin over independent
// EPC domains, each running the engine RunShared drives — is a fleet
// with every arrival at t=0, RoundRobin placement and no admission
// control. These tests pin that shape on the engine's tie-break
// enclaves, whose tied schedules make any cross-domain leak visible.

// shardRun runs encs round-robin over shards EPC domains at t=0.
func shardRun(encs []sim.Enclave, shards, workers int, platform sim.SharedConfig) (fleet.Result, error) {
	arr := make([]fleet.Arrival, len(encs))
	for i, e := range encs {
		arr[i] = fleet.Arrival{Enclave: e}
	}
	return fleet.Run(arr, fleet.Config{Hosts: shards, Policy: fleet.RoundRobin,
		Platform: platform, Workers: workers})
}

// roundRobinGroups returns the i mod shards groups of encs.
func roundRobinGroups(encs []sim.Enclave, shards int) [][]sim.Enclave {
	groups := make([][]sim.Enclave, shards)
	for i, e := range encs {
		groups[i%shards] = append(groups[i%shards], e)
	}
	return groups
}

func jsonl(t *testing.T, rec *obs.Recorder) string {
	t.Helper()
	var b strings.Builder
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestShardedOneShardEqualsRunShared: at one shard the sharded shape is
// RunShared — same engine, same schedule, byte-identical artifacts
// including the hooked event timeline.
func TestShardedOneShardEqualsRunShared(t *testing.T) {
	recA, recB := obs.NewRecorder(), obs.NewRecorder()
	shared, err := sim.RunShared(sim.TieBreakEnclaves(16), sim.SharedConfig{EPCPages: 128, Hook: recA})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shardRun(sim.TieBreakEnclaves(16), 1, 4, sim.SharedConfig{EPCPages: 128, Hook: recB})
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Hosts) != 1 {
		t.Fatalf("one-shard run returned %d shards", len(sharded.Hosts))
	}
	if a, b := fmt.Sprintf("%#v", shared), fmt.Sprintf("%#v", sharded.Hosts[0].Enclaves); a != b {
		t.Errorf("one-shard run diverges from RunShared:\n  shared  %.300s\n  sharded %.300s", a, b)
	}
	if a, b := jsonl(t, recA), jsonl(t, recB); a != b {
		t.Errorf("one-shard timeline diverges: %s", sim.FirstDiffLine(a, b))
	}
}

// TestShardedDeterministicAcrossWorkers: the whole sharded result must
// be identical at any worker count — completion order never leaks.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		res, err := shardRun(sim.TieBreakEnclaves(32), 4, workers, sim.SharedConfig{EPCPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", res)
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8, 0} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d: sharded results diverge from sequential run", workers)
		}
	}
}

// TestShardedErrors: empty inputs, hooked multi-shard runs, and a
// zero-page enclave are rejected; a failing shard reports
// the lowest-index error a sequential loop would have hit.
func TestShardedErrors(t *testing.T) {
	if _, err := shardRun(nil, 1, 1, sim.SharedConfig{EPCPages: 64}); err == nil {
		t.Error("no enclaves: want error")
	}
	if _, err := shardRun(sim.TieBreakEnclaves(4), 2, 2,
		sim.SharedConfig{EPCPages: 64, Hook: obs.NewRecorder()}); err == nil ||
		!strings.Contains(err.Error(), "hook") {
		t.Errorf("hooked 2-shard run: want hook error, got %v", err)
	}
	empty := sim.Enclave{Name: "empty", Trace: []mem.Access{{Page: 0, Compute: 1}}, Scheme: sim.Baseline}
	if _, err := shardRun([]sim.Enclave{sim.TieBreakEnclaves(1)[0], empty}, 2, 1,
		sim.SharedConfig{EPCPages: 64}); err == nil || !strings.Contains(err.Error(), "zero pages") {
		t.Errorf("zero-page enclave: want admission error, got %v", err)
	}

	// Shards 1 and 3 carry an access outside the enclave's declared
	// range; the run must surface shard 1's error.
	bad := sim.Enclave{Name: "bad", Trace: []mem.Access{{Page: 99, Compute: 1}}, Pages: 8, Scheme: sim.Baseline}
	good := sim.TieBreakEnclaves(4)
	encs := []sim.Enclave{good[0], bad, good[1], bad, good[2], good[3]}
	_, err := shardRun(encs, 4, 4, sim.SharedConfig{EPCPages: 64})
	if err == nil || !strings.Contains(err.Error(), "host 1:") {
		t.Errorf("want shard 1's error, got %v", err)
	}
}

// TestShardRoundRobin pins the deterministic placement: index i lands
// in shard i mod S, in index order within its shard.
func TestShardRoundRobin(t *testing.T) {
	res, err := shardRun(sim.TieBreakEnclaves(10), 4, 0, sim.SharedConfig{EPCPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 4 {
		t.Fatalf("got %d shards, want 4", len(res.Hosts))
	}
	for s, h := range res.Hosts {
		for j, e := range h.Enclaves {
			if want := fmt.Sprintf("enc%04d", s+j*4); e.Name != want {
				t.Errorf("shard %d slot %d holds %s, want %s", s, j, e.Name, want)
			}
		}
	}
}

// TestShardRoundRobinBoundaries is the table-driven boundary sweep over
// four requested shards: the empty fleet is an explicit error, and at
// fleet sizes below the shard count the surplus shards stay idle — so
// clamping the shard count to the fleet size (as sgxsim -shards does)
// changes no enclave's result.
func TestShardRoundRobinBoundaries(t *testing.T) {
	const shards = 4
	cases := []struct {
		name       string
		enclaves   int
		wantShards int // 0 = want error
	}{
		{"empty", 0, 0},
		{"single", 1, 1},
		{"one-less-than-shards", shards - 1, shards - 1},
		{"exactly-shards", shards, shards},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := sim.SharedConfig{EPCPages: 64}
			res, err := shardRun(sim.TieBreakEnclaves(c.enclaves), shards, 1, cfg)
			if c.wantShards == 0 {
				if err == nil {
					t.Fatalf("empty fleet: want error, got %d shards", len(res.Hosts))
				}
				if !strings.Contains(err.Error(), "at least one arrival") {
					t.Errorf("empty fleet error %q does not name the empty input", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			clamped, err := shardRun(sim.TieBreakEnclaves(c.enclaves), c.wantShards, 1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for s, h := range res.Hosts {
				total += len(h.Enclaves)
				if s >= c.wantShards {
					if len(h.Enclaves) != 0 || h.Faults != 0 {
						t.Errorf("surplus shard %d ran %d enclaves, %d faults", s, len(h.Enclaves), h.Faults)
					}
					continue
				}
				if len(h.Enclaves) == 0 {
					t.Errorf("shard %d is empty", s)
				}
				if a, b := fmt.Sprintf("%#v", h.Enclaves), fmt.Sprintf("%#v", clamped.Hosts[s].Enclaves); a != b {
					t.Errorf("shard %d: results change when the shard count clamps to %d", s, c.wantShards)
				}
			}
			if total != c.enclaves {
				t.Errorf("placement lost enclaves: %d placed, %d given", total, c.enclaves)
			}
		})
	}
}

// slowFailStream yields delay accesses, then one access outside the
// enclave's range — a shard that fails only after simulating a while.
func slowFailStream(delay int, pages uint64) mem.Stream {
	i := 0
	return mem.StreamFunc(func() (mem.Access, bool) {
		i++
		if i <= delay {
			return mem.Access{Page: mem.PageID(uint64(i) % pages), Compute: 1000}, true
		}
		if i == delay+1 {
			return mem.Access{Page: mem.PageID(pages) + 1, Compute: 1000}, true
		}
		return mem.Access{}, false
	})
}

// TestShardedOutOfOrderFailure forces a higher-index shard to fail
// long before a lower-index shard (already claimed by a worker) reports
// its own error: shard 0 fails after 50k accesses, shard 3 on its first.
// The lowest-index error must win at every worker count — the result a
// sequential shard loop would have surfaced — even though shard 3's
// failure stops the pool while shard 0 is still running.
func TestShardedOutOfOrderFailure(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 0} {
		mk := func(delay int) sim.Enclave {
			return sim.Enclave{
				Name:   fmt.Sprintf("bad-after-%d", delay),
				Stream: slowFailStream(delay, 8),
				Pages:  8,
				Scheme: sim.Baseline,
			}
		}
		good := sim.TieBreakEnclaves(4)
		encs := []sim.Enclave{mk(50000), good[0], good[1], mk(0), good[2], good[3]}
		_, err := shardRun(encs, 4, workers, sim.SharedConfig{EPCPages: 64})
		if err == nil {
			t.Fatalf("workers=%d: want error", workers)
		}
		if !strings.Contains(err.Error(), "host 0:") || !strings.Contains(err.Error(), "bad-after-50000") {
			t.Errorf("workers=%d: want shard 0's error (the sequential loop's first), got %v", workers, err)
		}
	}
}

// TestShardedHookFactory: the per-shard factory records each EPC domain
// to its own hook deterministically — shard i's timeline is identical
// to a solo RunShared of that shard's enclaves with a direct hook — and
// combining the factory with the shared Hook field is rejected.
func TestShardedHookFactory(t *testing.T) {
	const shards = 4
	recs := make([]*obs.Recorder, shards)
	cfg := sim.SharedConfig{EPCPages: 64, HookFactory: func(shard int) obs.Hook {
		recs[shard] = obs.NewRecorder()
		return recs[shard]
	}}
	if _, err := shardRun(sim.TieBreakEnclaves(8), shards, 4, cfg); err != nil {
		t.Fatal(err)
	}
	groups := roundRobinGroups(sim.TieBreakEnclaves(8), shards)
	for i, g := range groups {
		want := obs.NewRecorder()
		if _, err := sim.RunShared(g, sim.SharedConfig{EPCPages: 64, Hook: want}); err != nil {
			t.Fatal(err)
		}
		if a, b := jsonl(t, recs[i]), jsonl(t, want); a != b {
			t.Errorf("shard %d: factory-recorded timeline diverges from solo run: %s",
				i, sim.FirstDiffLine(a, b))
		}
	}

	// Both Hook and HookFactory set is ambiguous — rejected.
	bad := sim.SharedConfig{EPCPages: 64, Hook: obs.NewRecorder(),
		HookFactory: func(int) obs.Hook { return nil }}
	if _, err := shardRun(sim.TieBreakEnclaves(8), shards, 1, bad); err == nil ||
		!strings.Contains(err.Error(), "not both") {
		t.Errorf("Hook+HookFactory: want rejection, got %v", err)
	}
	// An unresolved factory must not reach an engine silently.
	if _, err := sim.RunShared(groups[0], sim.SharedConfig{EPCPages: 64,
		HookFactory: func(int) obs.Hook { return nil }}); err == nil ||
		!strings.Contains(err.Error(), "HookFactory") {
		t.Errorf("engine-level HookFactory: want rejection, got %v", err)
	}
}
