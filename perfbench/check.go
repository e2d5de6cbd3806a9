package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"sgxpreload/internal/fleet"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sim"
)

// digester hashes a job's simulated output. Values are rendered with
// %#v, which prints every field by name and, unlike %v and %+v, never
// calls a String method: fleet.Result's String is a rounded summary
// table, so %+v would leave out the per-enclave results, the placement,
// the shed names and the resident and quota vectors. With %#v every
// field of sim.Result (kernel.Stats included) and of a fleet.Result
// enters the digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(v any) *digester {
	fmt.Fprintf(d.h, "%#v\n", v)
	return d
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// digests checks each job's digest against the recorded reference (for
// jobs the reference covers) and against the digest its first run in
// this process produced, which is how a traced job is held to the
// untraced engine's results.
type digests struct {
	refs map[string]string
	seen map[string]string
}

func (d *digests) check(key, digest string) error {
	if ref, ok := d.refs[key]; ok && ref != digest {
		return fmt.Errorf("%s: digest %.12s differs from reference %.12s", key, digest, ref)
	}
	if prev, ok := d.seen[key]; ok && prev != digest {
		return fmt.Errorf("%s: digest %.12s differs from the first run's %.12s", key, digest, prev)
	}
	d.seen[key] = digest
	return nil
}

// checkResults holds every enclave to hits + demand faults = accesses.
func checkResults(rs []sim.SharedResult) error {
	for i, r := range rs {
		if r.Hits+r.Kernel.DemandFaults != r.Accesses {
			return fmt.Errorf("enclave %d (%s): hits %d + demand faults %d != accesses %d",
				i, r.Name, r.Hits, r.Kernel.DemandFaults, r.Accesses)
		}
	}
	return nil
}

// checkFleet holds a fleet run to its bookkeeping invariants: every
// launch is either placed or shed, and each host's per-enclave resident
// counts sum to its EPC occupancy, which never exceeds the EPC.
func checkFleet(res fleet.Result, launches, epcPages int) error {
	admitted := 0
	for _, h := range res.Placement {
		if h >= 0 {
			admitted++
		}
	}
	if len(res.Placement) != launches || admitted+len(res.Shed) != launches {
		return fmt.Errorf("fleet: admitted %d + shed %d != launches %d (placements %d)",
			admitted, len(res.Shed), launches, len(res.Placement))
	}
	for h, hr := range res.Hosts {
		sum := 0
		for _, r := range hr.Resident {
			sum += r
		}
		if sum != hr.EPCResident || hr.EPCResident > epcPages {
			return fmt.Errorf("fleet host %d: resident sum %d, EPC resident %d, EPC %d", h, sum, hr.EPCResident, epcPages)
		}
		if err := checkResults(hr.Enclaves); err != nil {
			return fmt.Errorf("fleet host %d: %w", h, err)
		}
	}
	return nil
}

// checkTrace holds one parsed trace to the sink that wrote it: the
// parser returns every emitted event, and re-encoding the parsed events
// reproduces the written bytes exactly.
func checkTrace(format string, written []byte, events []obs.Event, emitted int) error {
	if len(events) != emitted {
		return fmt.Errorf("%s trace: parsed %d events, sink emitted %d", format, len(events), emitted)
	}
	write := obs.WriteJSONL
	if format == "csv" {
		write = obs.WriteCSV
	}
	cmp := &cmpWriter{want: written}
	if err := write(cmp, events); err != nil {
		return err
	}
	if cmp.differs || cmp.off != len(written) {
		return fmt.Errorf("%s trace: re-encoding the parsed events does not reproduce the %d bytes written", format, len(written))
	}
	return nil
}

// cmpWriter compares everything written to it against want, so a
// re-encoded trace is checked without a second copy in memory.
type cmpWriter struct {
	want    []byte
	off     int
	differs bool
}

func (w *cmpWriter) Write(p []byte) (int, error) {
	end := w.off + len(p)
	if end > len(w.want) || !bytes.Equal(p, w.want[w.off:end]) {
		w.differs = true
	}
	w.off = end
	return len(p), nil
}
