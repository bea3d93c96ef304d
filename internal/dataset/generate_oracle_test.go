package dataset

// Oracle for the one-pass as-of generator. The reference below is the
// two-pass path Generate used to take: generate the paper-era
// population, sort it, then walk the sorted records and restamp every
// record of an upgraded device with a freshly appended 1.3 hello that
// keeps the record's client random. Generate now decides each device's
// upgrade when it mints the device and stamps 1.3 records directly; the
// tests here pin it to the reference record for record.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/intern"
	"repro/internal/libcorpus"
	"repro/internal/obs"
)

// referenceDriftHash is driftHash written against hash/fnv.
func referenceDriftHash(seed int64, kind, a string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(a))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// referenceUpgradeEntryFor is the entry pick over a freshly filtered
// ModernAsOf slice.
func referenceUpgradeEntryFor(seed int64, stackID string, upAt time.Time) libcorpus.ModernEntry {
	entries := libcorpus.ModernAsOf(upAt)
	if len(entries) == 0 {
		entries = libcorpus.Modern()[:1]
	}
	return entries[referenceDriftHash(seed, "fw-lib", stackID)%uint64(len(entries))]
}

// referenceApplyFirmwareDrift is the post-sort restamping pass: new
// templates are appended to the shared raw buffer and the record spans
// repointed, each record keeping its original client random.
func referenceApplyFirmwareDrift(ds *Dataset, cfg Config, m *obs.Registry) {
	asof := cfg.AsOf
	if asof.IsZero() || !asof.After(driftStart) {
		return
	}
	profiles := map[string]SecurityProfile{}
	for _, v := range Vendors() {
		profiles[v.Name] = v.Profile
	}
	cols := ds.Records.c
	tab := cols.tab
	type devDecision struct {
		upgraded bool
		at       time.Time
	}
	decisions := map[intern.Symbol]devDecision{}
	tmpl := map[tmplKey][]byte{}
	var devicesUpgraded, recordsRestamped int64
	for i := range cols.stack {
		devSym := cols.device[i]
		dec, ok := decisions[devSym]
		if !ok {
			at, up := upgradeDate(cfg.Seed, tab.Str(devSym), profiles[tab.Str(cols.vendor[i])])
			dec = devDecision{upgraded: up && !at.After(asof), at: at}
			decisions[devSym] = dec
			if dec.upgraded {
				devicesUpgraded++
			}
		}
		if !dec.upgraded {
			continue
		}
		origID := tab.Str(cols.stack[i])
		if strings.HasPrefix(origID, fwStackPrefix) {
			continue
		}
		entry := referenceUpgradeEntryFor(cfg.Seed, origID, dec.at)
		newSym := tab.Intern(fwStackPrefix + entry.Name() + ":" + origID)
		key := tmplKey{stack: newSym, sni: cols.sni[i]}
		t, ok := tmpl[key]
		if !ok {
			t = buildHelloTemplate13(entry.Print, tab.Str(cols.sni[i]))
			tmpl[key] = t
		}
		var random [32]byte
		copy(random[:], cols.rawBuf[cols.rawOff[i]+helloRandomOff:])
		off := uint32(len(cols.rawBuf))
		cols.rawBuf = append(cols.rawBuf, t...)
		copy(cols.rawBuf[off+helloRandomOff:], random[:])
		cols.rawOff[i] = off
		cols.rawLen[i] = uint32(len(t))
		cols.stack[i] = newSym
		recordsRestamped++
	}
	m.Counter("dataset_drift_upgraded_devices_total").Add(devicesUpgraded)
	m.Counter("dataset_drift_restamped_records_total").Add(recordsRestamped)
}

// cloneRecords deep-copies a paper-era dataset's columns so one base
// generation can be restamped at several dates. The intern table is
// shared: restamping only adds symbols to it.
func cloneRecords(ds *Dataset) *Dataset {
	c := ds.Records.c
	cc := &columns{
		tab:    c.tab,
		device: slices.Clone(c.device),
		vendor: slices.Clone(c.vendor),
		model:  slices.Clone(c.model),
		typ:    slices.Clone(c.typ),
		user:   slices.Clone(c.user),
		sni:    slices.Clone(c.sni),
		stack:  slices.Clone(c.stack),
		timeNS: slices.Clone(c.timeNS),
		rawOff: slices.Clone(c.rawOff),
		rawLen: slices.Clone(c.rawLen),
		rawBuf: slices.Clone(c.rawBuf),
	}
	out := *ds
	out.Records = Records{c: cc, hi: cc.len()}
	return &out
}

func counterValue(m *obs.Registry, name string) int64 { return m.Counter(name).Value() }

// TestGenerateMatchesTwoPassReference pins the one-pass generator to the
// generate-then-restamp reference: every record (identities, time,
// stack ID, raw bytes) and the drift counters agree, across seeds,
// scales, and dates on both sides of the drift window's start.
func TestGenerateMatchesTwoPassReference(t *testing.T) {
	asofs := []time.Time{
		{}, date(2020, 9, 1), date(2021, 6, 1), date(2023, 7, 1), date(2025, 8, 1), date(2026, 9, 1),
	}
	scales := []float64{0.05, 1, 3}
	if raceEnabled {
		// Generation is single-goroutine, so the race detector has
		// nothing to find here; scale 3 (three quarters of the run time
		// under it) is covered by the plain run.
		scales = scales[:2]
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, scale := range scales {
			base := Generate(Config{Seed: seed, Scale: scale})
			for _, asof := range asofs {
				name := fmt.Sprintf("seed%d/scale%g/asof%s", seed, scale, asof.Format("2006-01-02"))
				cfg := Config{Seed: seed, Scale: scale, AsOf: asof}
				refMetrics := obs.NewRegistry("")
				ref := cloneRecords(base)
				referenceApplyFirmwareDrift(ref, cfg, refMetrics)

				gotMetrics := obs.NewRegistry("")
				cfg.Metrics = gotMetrics
				got := Generate(cfg)

				if g, w := got.Records.Len(), ref.Records.Len(); g != w {
					t.Fatalf("%s: %d records, reference has %d", name, g, w)
				}
				gotRows, refRows := got.Records.Rows(), ref.Records.Rows()
				for i := range refRows {
					g, w := gotRows[i], refRows[i]
					if g.DeviceID != w.DeviceID || g.Vendor != w.Vendor || g.Model != w.Model ||
						g.Type != w.Type || g.User != w.User || !g.Time.Equal(w.Time) ||
						g.SNI != w.SNI || g.StackID != w.StackID {
						t.Fatalf("%s: record %d differs\n got %+v\nwant %+v", name, i,
							withoutRaw(g), withoutRaw(w))
					}
					if !bytes.Equal(g.Raw, w.Raw) {
						t.Fatalf("%s: record %d (stack %s) raw bytes differ", name, i, g.StackID)
					}
				}
				for _, c := range []string{"dataset_drift_upgraded_devices_total", "dataset_drift_restamped_records_total"} {
					if g, w := counterValue(gotMetrics, c), counterValue(refMetrics, c); g != w {
						t.Fatalf("%s: %s = %d, reference %d", name, c, g, w)
					}
				}
				if driftActive(asof) && counterValue(gotMetrics, "dataset_drift_restamped_records_total") == 0 {
					t.Fatalf("%s: no record restamped past the drift window's start", name)
				}
			}
		}
	}
}

func withoutRaw(r Record) Record {
	r.Raw = nil
	return r
}

// TestDriftHashMatchesFNV pins the inline FNV-1a loop to hash/fnv.
func TestDriftHashMatchesFNV(t *testing.T) {
	cases := []struct {
		seed    int64
		kind, a string
	}{
		{0, "", ""},
		{1, "fw-lib", "core:roku:0"},
		{2, "fw-date", "dev-00001"},
		{3, "fw-straggle", "dev-20140"},
		{-1, "fw-lib", "rc4:unique:dev-00042"},
		{20231024, "fw-lib", "fw:OpenSSL 3.0.0:ssl3:Belkin"},
		{1 << 62, "k\x00", "\xff\x00\x80"},
	}
	for _, c := range cases {
		if got, want := driftHash(c.seed, c.kind, c.a), referenceDriftHash(c.seed, c.kind, c.a); got != want {
			t.Errorf("driftHash(%d, %q, %q) = %#x, want %#x", c.seed, c.kind, c.a, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { driftHash(7, "fw-lib", "core:roku:0") }); n != 0 {
		t.Errorf("driftHash allocates %.0f times per call", n)
	}
}

// TestUpgradeEntryForMatchesModernAsOf checks the allocation-free pick
// against ModernAsOf(upAt)[driftHash % n] a day either side of every
// release date, and the oldest-entry fallback before any release.
func TestUpgradeEntryForMatchesModernAsOf(t *testing.T) {
	var dates []time.Time
	for _, e := range libcorpus.Modern() {
		dates = append(dates, e.Released.AddDate(0, 0, -1), e.Released, e.Released.AddDate(0, 0, 1))
	}
	dates = append(dates, date(2019, 1, 1), driftStart, driftEnd)
	fallbackSeen := false
	for _, upAt := range dates {
		if len(libcorpus.ModernAsOf(upAt)) == 0 {
			fallbackSeen = true
		}
		for _, seed := range []int64{1, 2, 3} {
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("core:group-%d:%d", i, i%4)
				got, want := upgradeEntryFor(seed, id, upAt), referenceUpgradeEntryFor(seed, id, upAt)
				if got.Name() != want.Name() || got.Released != want.Released {
					t.Fatalf("seed %d stack %s at %s: picked %s, want %s",
						seed, id, upAt.Format("2006-01-02"), got.Name(), want.Name())
				}
			}
		}
	}
	if !fallbackSeen {
		t.Fatal("no date before the first modern release was checked")
	}
	upAt := date(2023, 7, 1)
	if n := testing.AllocsPerRun(100, func() { upgradeEntryFor(1, "core:roku:0", upAt) }); n != 0 {
		t.Errorf("upgradeEntryFor allocates %.0f times per call", n)
	}
}

// TestGenerateAsOfAllocBudget bounds the heap allocations of one
// scale-1 Generate as of 2025-08-01 (seed 1). With stamp-time drift it
// measures ~64.3k (131.8k with the post-sort restamping pass), ~68.3k
// under the race detector's instrumentation; each budget leaves ~5% for
// map-growth jitter across Go releases.
func TestGenerateAsOfAllocBudget(t *testing.T) {
	budget := 67_500.0
	if raceEnabled {
		budget = 71_800
	}
	cfg := Config{Seed: 1, Scale: 1, AsOf: date(2025, 8, 1)}
	if n := testing.AllocsPerRun(2, func() { Generate(cfg) }); n > budget {
		t.Fatalf("scale-1 as-of Generate: %.0f allocations, budget %.0f", n, budget)
	}
}
