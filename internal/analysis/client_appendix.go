package analysis

import (
	"sort"

	"repro/internal/ciphersuite"
	"repro/internal/fingerprint"
	"repro/internal/tlswire"
)

// LibMatchResult summarizes the Section 4.1 exact-matching experiment.
type LibMatchResult struct {
	// TotalFingerprints in the dataset.
	TotalFingerprints int
	// MatchedFingerprints had an exact 3-tuple match.
	MatchedFingerprints int
	// MatchedLibraries is the set of distinct library builds matched.
	MatchedLibraries []string
	// UnsupportedLibraries of those were no longer maintained in 2020.
	UnsupportedLibraries int
	// PerFamily counts matched libraries per family.
	PerFamily map[string]int
}

// MatchRate is MatchedFingerprints / TotalFingerprints (the paper: 2.55%).
func (r LibMatchResult) MatchRate() float64 {
	if r.TotalFingerprints == 0 {
		return 0
	}
	return float64(r.MatchedFingerprints) / float64(r.TotalFingerprints)
}

// MatchLibraries runs exact matching of every dataset fingerprint against
// the corpus.
func (c *Client) MatchLibraries(matcher *fingerprint.Matcher) LibMatchResult {
	res := LibMatchResult{
		TotalFingerprints: len(c.Prints),
		PerFamily:         map[string]int{},
	}
	libs := map[string]bool{}
	for _, key := range c.orderedKeys {
		e, ok := matcher.MatchExact(c.Prints[key].Print)
		if !ok {
			continue
		}
		res.MatchedFingerprints++
		if !libs[e.Name()] {
			libs[e.Name()] = true
			res.PerFamily[e.Family]++
			if !e.SupportedIn2020 {
				res.UnsupportedLibraries++
			}
		}
	}
	for name := range libs {
		res.MatchedLibraries = append(res.MatchedLibraries, name)
	}
	sort.Strings(res.MatchedLibraries)
	return res
}

// Table11Row is one row of the semantics-aware matching results.
type Table11Row struct {
	Category fingerprint.MatchCategory
	// Tuples is the number of {device, ciphersuite list} tuples in the
	// category.
	Tuples int
	// PercentTotal of all tuples.
	PercentTotal float64
	// Vendors with at least one tuple in the category.
	Vendors int
	// PercentOutdated of tuples matched to libraries unsupported in 2020
	// (not meaningful for Customization).
	PercentOutdated float64
}

// Table11 runs the semantics-aware matcher over every {device, suites}
// tuple: once per distinct ciphersuite list, weighted by the list's
// devices.
func (c *Client) Table11(matcher *fingerprint.Matcher) []Table11Row {
	a := c.aggregate()
	type acc struct {
		tuples   int
		vendors  []bool
		outdated int
	}
	accs := map[fingerprint.MatchCategory]*acc{}
	for _, l := range a.lists {
		m := matcher.MatchSemantics(l.suites)
		ac := accs[m.Category]
		if ac == nil {
			ac = &acc{vendors: make([]bool, len(a.vendors))}
			accs[m.Category] = ac
		}
		ac.tuples += l.devices
		for _, vc := range l.vendors {
			ac.vendors[vc.vendor] = true
		}
		if m.Category != fingerprint.Customization && !m.Library.SupportedIn2020 {
			ac.outdated += l.devices
		}
	}
	cats := []fingerprint.MatchCategory{
		fingerprint.ExactCiphersuites,
		fingerprint.SameSetDiffOrder,
		fingerprint.SameComponent,
		fingerprint.SimilarComponent,
		fingerprint.Customization,
	}
	rows := make([]Table11Row, 0, len(cats))
	for _, cat := range cats {
		ac := accs[cat]
		if ac == nil {
			rows = append(rows, Table11Row{Category: cat})
			continue
		}
		vendors := 0
		for _, ok := range ac.vendors {
			if ok {
				vendors++
			}
		}
		row := Table11Row{
			Category:     cat,
			Tuples:       ac.tuples,
			PercentTotal: float64(ac.tuples) / float64(a.tuples),
			Vendors:      vendors,
		}
		if ac.tuples > 0 {
			row.PercentOutdated = float64(ac.outdated) / float64(ac.tuples)
		}
		rows = append(rows, row)
	}
	return rows
}

// Figure8Bucket is a histogram bucket of Jaccard similarity between a
// device's suites and its closest library.
type Figure8Bucket struct {
	Low, High float64
	SameComp  int
	SimComp   int
}

// Figure8 builds the Jaccard histogram for the SameComponent and
// SimilarComponent categories.
func (c *Client) Figure8(matcher *fingerprint.Matcher, buckets int) []Figure8Bucket {
	if buckets <= 0 {
		buckets = 10
	}
	out := make([]Figure8Bucket, buckets)
	for i := range out {
		out[i].Low = float64(i) / float64(buckets)
		out[i].High = float64(i+1) / float64(buckets)
	}
	for _, l := range c.aggregate().lists {
		m := matcher.MatchSemantics(l.suites)
		if m.Category != fingerprint.SameComponent && m.Category != fingerprint.SimilarComponent {
			continue
		}
		idx := int(m.Jaccard * float64(buckets))
		if idx >= buckets {
			idx = buckets - 1
		}
		if m.Category == fingerprint.SameComponent {
			out[idx].SameComp += l.devices
		} else {
			out[idx].SimComp += l.devices
		}
	}
	return out
}

// Table12 returns proposal counts per TLS version.
func (c *Client) Table12() map[tlswire.Version]int {
	out := make(map[tlswire.Version]int, len(c.VersionCounts))
	for v, n := range c.VersionCounts {
		out[v] = n
	}
	return out
}

// SSL3Census reports the devices and vendors still proposing SSL 3.0.
func (c *Client) SSL3Census() (devices int, vendors map[string]int) {
	devSet := map[string]bool{}
	vendors = map[string]int{}
	for _, key := range c.orderedKeys {
		info := c.Prints[key]
		if info.Print.Version != tlswire.VersionSSL30 {
			continue
		}
		for _, d := range info.Devices {
			if !devSet[d] {
				devSet[d] = true
				vendors[c.DeviceVendor[d]]++
			}
		}
	}
	return len(devSet), vendors
}

// Figure9Row reports a vendor's vulnerable-component inclusion.
type Figure9Row struct {
	Vendor string
	// TupleCount is the number of {device, suites} tuples for the vendor.
	TupleCount int
	// ByClass counts tuples containing each vulnerable family.
	ByClass map[ciphersuite.VulnClass]int
}

// Figure9 computes vulnerable-component inclusion per vendor.
func (c *Client) Figure9() []Figure9Row {
	a := c.aggregate()
	rows := make([]*Figure9Row, len(a.vendors))
	for _, l := range a.lists {
		classes := ciphersuite.VulnClasses(l.suites)
		for _, vc := range l.vendors {
			row := rows[vc.vendor]
			if row == nil {
				row = &Figure9Row{Vendor: a.vendors[vc.vendor], ByClass: map[ciphersuite.VulnClass]int{}}
				rows[vc.vendor] = row
			}
			row.TupleCount += vc.devices
			for _, cl := range classes {
				row.ByClass[cl] += vc.devices
			}
		}
	}
	return compactRows(rows)
}

// compactRows returns the non-nil rows of a per-vendor-index slice,
// which are already in vendor order.
func compactRows[T any](rows []*T) []T {
	out := make([]T, 0, len(rows))
	for _, r := range rows {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// Figure11Row is a vendor's lowest-vulnerable-index distribution.
type Figure11Row struct {
	Vendor string
	// Indices holds the lowest vulnerable-suite index of each {device,
	// suites} tuple; -1 entries (no vulnerable suite) are excluded.
	Indices []int
	// Tuples is the total tuple count (including clean ones).
	Tuples int
	// FirstPreferred counts tuples whose MOST preferred suite is
	// vulnerable.
	FirstPreferred int
}

// Figure11 computes the lowest index of vulnerable ciphersuites per
// vendor (Appendix B.7).
func (c *Client) Figure11() []Figure11Row {
	a := c.aggregate()
	rows := make([]*Figure11Row, len(a.vendors))
	for _, l := range a.lists {
		// Skip a leading renegotiation SCSV, as the appendix does.
		effective := l.suites
		if len(effective) > 0 && effective[0] == ciphersuite.SCSVRenegotiation {
			effective = effective[1:]
		}
		idx := ciphersuite.LowestVulnerableIndex(effective)
		for _, vc := range l.vendors {
			row := rows[vc.vendor]
			if row == nil {
				row = &Figure11Row{Vendor: a.vendors[vc.vendor]}
				rows[vc.vendor] = row
			}
			row.Tuples += vc.devices
			if idx < 0 {
				continue
			}
			for i := 0; i < vc.devices; i++ {
				row.Indices = append(row.Indices, idx)
			}
			if idx == 0 {
				row.FirstPreferred += vc.devices
			}
		}
	}
	for _, r := range rows {
		if r != nil {
			sort.Ints(r.Indices)
		}
	}
	return compactRows(rows)
}

// Figure12Row decomposes each vendor's most-preferred ciphersuites.
type Figure12Row struct {
	Vendor string
	// Kex, Cipher, MAC tally the usage count of each component algorithm
	// appearing in first position.
	Kex    map[string]int
	Cipher map[string]int
	MAC    map[string]int
}

// Figure12 computes the most-preferred algorithm components per vendor
// (Appendix B.8). Tuples led by the renegotiation SCSV are excluded, as
// in the paper.
func (c *Client) Figure12() []Figure12Row {
	a := c.aggregate()
	rows := make([]*Figure12Row, len(a.vendors))
	for _, l := range a.lists {
		if len(l.suites) == 0 || l.suites[0] == ciphersuite.SCSVRenegotiation {
			continue
		}
		first, ok := ciphersuite.Lookup(l.suites[0])
		if !ok || first.IsSCSV() {
			continue
		}
		k, ci, m := first.Components()
		for _, vc := range l.vendors {
			row := rows[vc.vendor]
			if row == nil {
				row = &Figure12Row{
					Vendor: a.vendors[vc.vendor],
					Kex:    map[string]int{},
					Cipher: map[string]int{},
					MAC:    map[string]int{},
				}
				rows[vc.vendor] = row
			}
			row.Kex[k] += vc.devices
			row.Cipher[ci] += vc.devices
			row.MAC[m] += vc.devices
		}
	}
	return compactRows(rows)
}

// ExtensionCensus reports device/vendor counts for OCSP status requests,
// GREASE, and TLS_FALLBACK_SCSV (Appendix B.3.1, B.9, B.10).
type ExtensionCensus struct {
	OCSPDevices, OCSPVendors                 int
	GREASESuiteDevices, GREASESuiteVendors   int
	GREASEExtDevices, GREASEExtVendors       int
	FallbackSCSVDevices, FallbackSCSVVendors int
}

// Census computes the extension/feature censuses.
func (c *Client) Census() ExtensionCensus {
	type devFlags struct {
		ocsp, gSuite, gExt, scsv bool
	}
	flags := map[string]*devFlags{}
	get := func(dev string) *devFlags {
		f := flags[dev]
		if f == nil {
			f = &devFlags{}
			flags[dev] = f
		}
		return f
	}
	for _, key := range c.orderedKeys {
		info := c.Prints[key]
		hasOCSP := false
		for _, e := range info.Print.Extensions {
			if e == uint16(tlswire.ExtStatusRequest) {
				hasOCSP = true
			}
		}
		gSuite := info.Print.HasGREASESuites()
		gExt := info.Print.HasGREASEExtensions()
		scsv := info.Print.ProposesFallbackSCSV()
		for _, dev := range info.Devices {
			f := get(dev)
			f.ocsp = f.ocsp || hasOCSP
			f.gSuite = f.gSuite || gSuite
			f.gExt = f.gExt || gExt
			f.scsv = f.scsv || scsv
		}
	}
	var out ExtensionCensus
	vOCSP, vGS, vGE, vSCSV := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	for dev, f := range flags {
		vendor := c.DeviceVendor[dev]
		if f.ocsp {
			out.OCSPDevices++
			vOCSP[vendor] = true
		}
		if f.gSuite {
			out.GREASESuiteDevices++
			vGS[vendor] = true
		}
		if f.gExt {
			out.GREASEExtDevices++
			vGE[vendor] = true
		}
		if f.scsv {
			out.FallbackSCSVDevices++
			vSCSV[vendor] = true
		}
	}
	out.OCSPVendors = len(vOCSP)
	out.GREASESuiteVendors = len(vGS)
	out.GREASEExtVendors = len(vGE)
	out.FallbackSCSVVendors = len(vSCSV)
	return out
}
