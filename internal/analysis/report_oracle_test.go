package analysis

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/ciphersuite"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/libcorpus"
)

// This file is the reference oracle for the report aggregate: the
// per-device tuple enumeration and per-vendor device graphs the client
// tables were built from before reportAgg, kept verbatim in spirit.
// Every aggregate-backed table must equal its reference exactly.

// refDeviceSuiteTuples enumerates the distinct {device, ciphersuite
// list} tuples (Appendix B's 5,827 unit of analysis), keyed by
// device+"|"+list.
func refDeviceSuiteTuples(c *Client) map[string][]uint16 {
	out := map[string][]uint16{}
	for _, key := range c.orderedKeys {
		info := c.Prints[key]
		suiteKey := ""
		for _, cs := range info.Print.CipherSuites {
			suiteKey += string(rune('A'+(cs>>12))) + string(rune('a'+(cs>>8&0xF))) +
				string(rune('a'+(cs>>4&0xF))) + string(rune('a'+(cs&0xF)))
		}
		for _, dev := range info.Devices {
			out[dev+"|"+suiteKey] = info.Print.CipherSuites
		}
	}
	return out
}

// tupleDevice is the device half of a refDeviceSuiteTuples key.
func tupleDevice(id string) string {
	for i := 0; i < len(id); i++ {
		if id[i] == '|' {
			return id[:i]
		}
	}
	return id
}

func refTable11(c *Client, matcher *fingerprint.Matcher) []Table11Row {
	type acc struct {
		tuples   int
		vendors  map[string]bool
		outdated int
	}
	accs := map[fingerprint.MatchCategory]*acc{}
	tuples := refDeviceSuiteTuples(c)
	for id, suites := range tuples {
		m := matcher.MatchSemantics(suites)
		a := accs[m.Category]
		if a == nil {
			a = &acc{vendors: map[string]bool{}}
			accs[m.Category] = a
		}
		a.tuples++
		a.vendors[c.DeviceVendor[tupleDevice(id)]] = true
		if m.Category != fingerprint.Customization && !m.Library.SupportedIn2020 {
			a.outdated++
		}
	}
	var rows []Table11Row
	for _, cat := range []fingerprint.MatchCategory{
		fingerprint.ExactCiphersuites, fingerprint.SameSetDiffOrder, fingerprint.SameComponent,
		fingerprint.SimilarComponent, fingerprint.Customization,
	} {
		a := accs[cat]
		if a == nil {
			rows = append(rows, Table11Row{Category: cat})
			continue
		}
		rows = append(rows, Table11Row{
			Category:        cat,
			Tuples:          a.tuples,
			PercentTotal:    float64(a.tuples) / float64(len(tuples)),
			Vendors:         len(a.vendors),
			PercentOutdated: float64(a.outdated) / float64(a.tuples),
		})
	}
	return rows
}

func refFigure8(c *Client, matcher *fingerprint.Matcher, buckets int) []Figure8Bucket {
	out := make([]Figure8Bucket, buckets)
	for i := range out {
		out[i].Low = float64(i) / float64(buckets)
		out[i].High = float64(i+1) / float64(buckets)
	}
	for _, suites := range refDeviceSuiteTuples(c) {
		m := matcher.MatchSemantics(suites)
		if m.Category != fingerprint.SameComponent && m.Category != fingerprint.SimilarComponent {
			continue
		}
		idx := int(m.Jaccard * float64(buckets))
		if idx >= buckets {
			idx = buckets - 1
		}
		if m.Category == fingerprint.SameComponent {
			out[idx].SameComp++
		} else {
			out[idx].SimComp++
		}
	}
	return out
}

func refFigure9(c *Client) []Figure9Row {
	rows := map[string]*Figure9Row{}
	for id, suites := range refDeviceSuiteTuples(c) {
		vendor := c.DeviceVendor[tupleDevice(id)]
		row := rows[vendor]
		if row == nil {
			row = &Figure9Row{Vendor: vendor, ByClass: map[ciphersuite.VulnClass]int{}}
			rows[vendor] = row
		}
		row.TupleCount++
		for _, cl := range ciphersuite.VulnClasses(suites) {
			row.ByClass[cl]++
		}
	}
	out := make([]Figure9Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vendor < out[j].Vendor })
	return out
}

func refFigure11(c *Client) []Figure11Row {
	rows := map[string]*Figure11Row{}
	for id, suites := range refDeviceSuiteTuples(c) {
		vendor := c.DeviceVendor[tupleDevice(id)]
		row := rows[vendor]
		if row == nil {
			row = &Figure11Row{Vendor: vendor}
			rows[vendor] = row
		}
		row.Tuples++
		effective := suites
		if len(effective) > 0 && effective[0] == ciphersuite.SCSVRenegotiation {
			effective = effective[1:]
		}
		if idx := ciphersuite.LowestVulnerableIndex(effective); idx >= 0 {
			row.Indices = append(row.Indices, idx)
			if idx == 0 {
				row.FirstPreferred++
			}
		}
	}
	out := make([]Figure11Row, 0, len(rows))
	for _, r := range rows {
		sort.Ints(r.Indices)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vendor < out[j].Vendor })
	return out
}

func refFigure12(c *Client) []Figure12Row {
	rows := map[string]*Figure12Row{}
	for id, suites := range refDeviceSuiteTuples(c) {
		if len(suites) == 0 || suites[0] == ciphersuite.SCSVRenegotiation {
			continue
		}
		first, ok := ciphersuite.Lookup(suites[0])
		if !ok || first.IsSCSV() {
			continue
		}
		vendor := c.DeviceVendor[tupleDevice(id)]
		row := rows[vendor]
		if row == nil {
			row = &Figure12Row{Vendor: vendor, Kex: map[string]int{}, Cipher: map[string]int{}, MAC: map[string]int{}}
			rows[vendor] = row
		}
		k, ci, m := first.Components()
		row.Kex[k]++
		row.Cipher[ci]++
		row.MAC[m]++
	}
	out := make([]Figure12Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vendor < out[j].Vendor })
	return out
}

func refTable3(c *Client, topN int) []Table3Row {
	perVendor := map[string]map[string]bool{}
	for _, key := range c.orderedKeys {
		for _, vendor := range c.Prints[key].Vendors {
			if perVendor[vendor] == nil {
				perVendor[vendor] = map[string]bool{}
			}
			perVendor[vendor][key] = true
		}
	}
	var rows []Table3Row
	for vendor, keys := range perVendor {
		shared10, single := 0, 0
		for key := range keys {
			n := 0
			for _, dev := range c.Prints[key].Devices {
				if c.DeviceVendor[dev] == vendor {
					n++
				}
			}
			if n >= 10 {
				shared10++
			}
			if n == 1 {
				single++
			}
		}
		rows = append(rows, Table3Row{
			Vendor:          vendor,
			NumFingerprints: len(keys),
			SharedBy10Plus:  float64(shared10) / float64(len(keys)),
			UsedBySingleDev: float64(single) / float64(len(keys)),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].NumFingerprints != rows[j].NumFingerprints {
			return rows[i].NumFingerprints > rows[j].NumFingerprints
		}
		return rows[i].Vendor < rows[j].Vendor
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}

// refDeviceDoCs builds one DeviceGraphForVendor per vendor and returns
// each vendor's per-device DoCs in sorted device order, plus their mean
// summed in that same order.
func refDeviceDoCs(c *Client) (perDevice map[string][]float64, mean map[string]float64) {
	vendors := map[string]bool{}
	for _, v := range c.DeviceVendor {
		vendors[v] = true
	}
	perDevice, mean = map[string][]float64{}, map[string]float64{}
	for vendor := range vendors {
		docs := c.DeviceGraphForVendor(vendor).DoCAll()
		devs := make([]string, 0, len(docs))
		for dev := range docs {
			devs = append(devs, dev)
		}
		sort.Strings(devs)
		vals := make([]float64, 0, len(devs))
		sum := 0.0
		for _, dev := range devs {
			vals = append(vals, docs[dev])
			sum += docs[dev]
		}
		perDevice[vendor] = vals
		mean[vendor] = 0
		if len(vals) > 0 {
			mean[vendor] = sum / float64(len(vals))
		}
	}
	return perDevice, mean
}

// checkTablesMatchReference asserts every aggregate-backed table equals
// its reference on c.
func checkTablesMatchReference(t *testing.T, name string, c *Client, matcher *fingerprint.Matcher) {
	t.Helper()
	check := func(table string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s differs from the reference:\n got %+v\nwant %+v", name, table, got, want)
		}
	}
	check("Table3", c.Table3(10), refTable3(c, 10))
	check("Table3(all)", c.Table3(0), refTable3(c, 0))
	check("Table11", c.Table11(matcher), refTable11(c, matcher))
	check("Figure8", c.Figure8(matcher, 10), refFigure8(c, matcher, 10))
	check("Figure9", c.Figure9(), refFigure9(c))
	check("Figure11", c.Figure11(), refFigure11(c))
	check("Figure12", c.Figure12(), refFigure12(c))
	perDevice, mean := refDeviceDoCs(c)
	check("DoCDeviceAll", c.DoCDeviceAll(), mean)
	for vendor, want := range perDevice {
		check("DeviceDoCsForVendor("+vendor+")", c.DeviceDoCsForVendor(vendor), want)
	}
	check("DeviceDoCsForVendor(unknown)", c.DeviceDoCsForVendor("no such vendor"), []float64{})
}

// deltaGrownClient folds ds's records into an empty client in batches
// of batch records.
func deltaGrownClient(t *testing.T, c *Client, rows []dataset.Record, batch int) *Client {
	t.Helper()
	for lo := 0; lo < len(rows); lo += batch {
		d, err := NewDelta(rows[lo:min(lo+batch, len(rows))])
		if err != nil {
			t.Fatal(err)
		}
		c.MergeDelta(d)
	}
	return c
}

func TestReportTablesMatchReference(t *testing.T) {
	matcher := libcorpus.NewMatcher()
	for _, seed := range []int64{1, 2, 3} {
		ds := dataset.Generate(dataset.Config{Seed: seed, Scale: 1})
		c, err := NewClient(ds)
		if err != nil {
			t.Fatal(err)
		}
		checkTablesMatchReference(t, fmt.Sprintf("seed %d", seed), c, matcher)
	}

	asof := dataset.Generate(dataset.Config{Seed: 1, Scale: 1, AsOf: time.Date(2025, 8, 1, 0, 0, 0, 0, time.UTC)})
	c, err := NewClient(asof)
	if err != nil {
		t.Fatal(err)
	}
	checkTablesMatchReference(t, "as of 2025-08-01", c, matcher)

	ds := dataset.Generate(dataset.Config{Seed: 5, Scale: 0.5})
	checkTablesMatchReference(t, "delta-grown", deltaGrownClient(t, NewClientEmpty(), ds.Records.Rows(), 97), matcher)
}

// TestReportAggregateInvalidatedByMerge pins the invalidation rule:
// a table read before MergeDelta must not leak into the table read
// after it, which must equal a client built in one go over the union of
// the records.
func TestReportAggregateInvalidatedByMerge(t *testing.T) {
	matcher := libcorpus.NewMatcher()
	ds := dataset.Generate(dataset.Config{Seed: 9, Scale: 0.4})
	rows := ds.Records.Rows()
	half := len(rows) / 2

	grown := deltaGrownClient(t, NewClientEmpty(), rows[:half], 200)
	before := grown.Figure11()
	snap := grown.Clone()
	deltaGrownClient(t, grown, rows[half:], 200)

	union, err := NewClient(ds)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, union.Figure11()) {
		t.Fatal("fixture too small: the second half changes no Figure 11 row")
	}
	checkTablesMatchReference(t, "after merge", grown, matcher)
	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"Figure11", grown.Figure11(), union.Figure11()},
		{"Table11", grown.Table11(matcher), union.Table11(matcher)},
		{"Table3", grown.Table3(0), union.Table3(0)},
		{"DoCDeviceAll", grown.DoCDeviceAll(), union.DoCDeviceAll()},
		{"snapshot Figure11", snap.Figure11(), before},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s differs:\n got %+v\nwant %+v", tc.name, tc.got, tc.want)
		}
	}
}

// TestDoCDeviceDeterministic: DoC_device is a float sum, so it is only
// reproducible if every call adds the same values in the same order.
// Repeated calls on one client and calls on two clients of one seed
// must agree bit for bit.
func TestDoCDeviceDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ds := dataset.Generate(dataset.Config{Seed: seed, Scale: 1})
		a, err := NewClient(ds)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewClient(dataset.Generate(dataset.Config{Seed: seed, Scale: 1}))
		if err != nil {
			t.Fatal(err)
		}
		want := a.DoCDeviceAll()
		for i := 0; i < 20; i++ {
			for _, got := range []map[string]float64{a.DoCDeviceAll(), b.Clone().DoCDeviceAll()} {
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d vendors, want %d", seed, len(got), len(want))
				}
				for vendor, w := range want {
					if math.Float64bits(got[vendor]) != math.Float64bits(w) {
						t.Fatalf("seed %d call %d: %s DoC_device %v, want %v", seed, i, vendor, got[vendor], w)
					}
				}
			}
		}
	}
}

// TestReportTablesSharedSuiteList covers a case the generated datasets
// never produce: one device proposing the same ciphersuite list under
// two fingerprints (different extensions). The device is one tuple for
// that list, not two.
func TestReportTablesSharedSuiteList(t *testing.T) {
	shared := []uint16{0xc02f, 0x0005, 0x002f}
	prints := map[string]fingerprint.Fingerprint{}
	for i, fp := range []fingerprint.Fingerprint{
		{Version: 0x0303, CipherSuites: shared, Extensions: []uint16{0, 10}},
		{Version: 0x0303, CipherSuites: shared, Extensions: []uint16{0, 11}},
		{Version: 0x0303, CipherSuites: []uint16{0x0004, 0xc02b}, Extensions: []uint16{0}},
	} {
		prints[fmt.Sprint("p", i)] = fp
	}
	uses := map[string][]string{ // device -> prints
		"a1": {"p0", "p1"},
		"a2": {"p0"},
		"b1": {"p1", "p2"},
	}
	c := newEmptyClient()
	c.DeviceVendor = map[string]string{"a1": "A", "a2": "A", "b1": "B", "idle": "C"}
	devices, vendors := map[string]map[string]bool{}, map[string]map[string]bool{}
	for dev, ps := range uses {
		keysOf := map[string]bool{}
		for _, p := range ps {
			key := prints[p].Key()
			keysOf[key] = true
			if devices[key] == nil {
				devices[key], vendors[key] = map[string]bool{}, map[string]bool{}
			}
			devices[key][dev] = true
			vendors[key][c.DeviceVendor[dev]] = true
		}
		c.DevicePrints[dev] = setOf(keysOf)
	}
	for _, fp := range prints {
		key := fp.Key()
		c.Prints[key] = &FingerprintInfo{Print: fp, Key: key, Devices: setOf(devices[key]), Vendors: setOf(vendors[key]), Records: 1}
	}
	c.rebuildOrderedKeys()

	matcher := libcorpus.NewMatcher()
	checkTablesMatchReference(t, "shared list", c, matcher)
	var tuples int
	for _, r := range c.Figure11() {
		tuples += r.Tuples
	}
	if want := len(refDeviceSuiteTuples(c)); tuples != 4 || want != 4 {
		t.Errorf("Figure 11 counts %d tuples, reference %d; want 4", tuples, want)
	}
}

// TestReportAggregateConcurrentFirstUse: table jobs run concurrently on
// a fresh client share one aggregate build, and each gets the result it
// would get alone.
func TestReportAggregateConcurrentFirstUse(t *testing.T) {
	matcher := libcorpus.NewMatcher()
	ds := dataset.Generate(dataset.Config{Seed: 4, Scale: 0.3})
	c, err := NewClient(ds)
	if err != nil {
		t.Fatal(err)
	}
	builders := []func() any{
		func() any { return c.Table3(10) },
		func() any { return c.Table11(matcher) },
		func() any { return c.Figure8(matcher, 10) },
		func() any { return c.Figure9() },
		func() any { return c.Figure11() },
		func() any { return c.Figure12() },
		func() any { return c.DoCDeviceAll() },
		func() any { return c.aggregate() },
	}
	got := make([]any, len(builders))
	var wg sync.WaitGroup
	for i, build := range builders {
		wg.Add(1)
		go func(i int, build func() any) {
			defer wg.Done()
			got[i] = build()
		}(i, build)
	}
	wg.Wait()
	if got[len(got)-1] != c.aggregate() {
		t.Fatal("concurrent first use built more than one aggregate")
	}
	for i, build := range builders {
		if want := build(); !reflect.DeepEqual(got[i], want) {
			t.Errorf("builder %d: concurrent result differs from a sequential call", i)
		}
	}
}
