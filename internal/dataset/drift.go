package dataset

// Firmware-drift timeline: the paper's capture stops in August 2020, when
// the IoT population proposed no TLS 1.3 at all. Config.AsOf replays the
// same population at a later virtual date: a hash-scheduled fraction of
// devices has taken a firmware update by then, and an update replaces the
// device's TLS cores with a 1.3-era library default from the dated
// modern corpus (libcorpus.Modern). Upgrade schedules are shaped by the
// vendor's security era — browser-grade vendors track releases within a
// couple of years, legacy fleets trail by most of the window — and a
// per-profile straggler share never upgrades at all, producing the
// paper-style long tail of downlevel hellos years after 1.3 shipped.
//
// Everything is a pure function of (Seed, device, vendor profile), so the
// upgraded-device set is monotone in AsOf: a device upgraded at date D is
// upgraded at every later date, and the 1.3-capable fraction never
// decreases as the timeline advances. A zero AsOf is a strict no-op — the
// generator output is byte-identical to a build without this file.

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/intern"
	"repro/internal/libcorpus"
	"repro/internal/obs"
	"repro/internal/tlswire"
)

// Drift window: firmware rebuilt on 1.3-era libraries could first ship
// once wolfSSL 4.5.0 was out (late August 2020); by the end of the
// window every non-straggler device has upgraded.
var (
	driftStart = time.Date(2020, 9, 1, 0, 0, 0, 0, time.UTC)
	driftEnd   = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
)

// driftProfile shapes a vendor era's upgrade behaviour: what fraction of
// devices never upgrades, and which slice of the drift window the rest
// upgrade within.
type driftProfile struct {
	stragglerPct uint64  // percent of devices that never upgrade
	lo, hi       float64 // upgrade-date band as fractions of the window
}

// driftProfileOf maps a vendor security era onto its upgrade shape. The
// straggler shares average to roughly a third of the population.
func driftProfileOf(p SecurityProfile) driftProfile {
	switch p {
	case ProfileModern:
		return driftProfile{stragglerPct: 15, lo: 0.0, hi: 0.45}
	case ProfileLegacy:
		return driftProfile{stragglerPct: 50, lo: 0.45, hi: 1.0}
	default: // ProfileMixed
		return driftProfile{stragglerPct: 33, lo: 0.2, hi: 0.8}
	}
}

// FNV-1a 64-bit parameters (hash/fnv's New64a), inlined by driftHash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// driftHash is the drift layer's only randomness: FNV-1a over the seed
// (8 little-endian bytes), kind, a zero separator and a, finalized with
// the murmur3 avalanche so nearby inputs decorrelate. It never touches
// the generator's rand stream, and the inline loop allocates nothing.
func driftHash(seed int64, kind, a string) uint64 {
	x := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		x ^= uint64(byte(uint64(seed) >> (8 * i)))
		x *= fnvPrime64
	}
	for i := 0; i < len(kind); i++ {
		x ^= uint64(kind[i])
		x *= fnvPrime64
	}
	x *= fnvPrime64 // the zero separator: x ^= 0 is a no-op
	for i := 0; i < len(a); i++ {
		x ^= uint64(a[i])
		x *= fnvPrime64
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// upgradeDate returns the date the device's firmware moves to a 1.3-era
// stack, or ok=false for stragglers that never upgrade. Pure in
// (seed, deviceID, profile), monotone by construction.
func upgradeDate(seed int64, deviceID string, profile SecurityProfile) (time.Time, bool) {
	dp := driftProfileOf(profile)
	if driftHash(seed, "fw-straggle", deviceID)%100 < dp.stragglerPct {
		return time.Time{}, false
	}
	frac := float64(driftHash(seed, "fw-date", deviceID)>>11) / float64(uint64(1)<<53)
	span := driftEnd.Sub(driftStart)
	at := dp.lo + frac*(dp.hi-dp.lo)
	return driftStart.Add(time.Duration(at * float64(span))), true
}

// modernCorpus is the process-wide copy of libcorpus.Modern the drift
// layer picks from, in the corpus's own order; it is never modified.
var modernCorpus = sync.OnceValue(libcorpus.Modern)

// upgradeEntryFor picks the modern-corpus entry an upgraded stack
// rebuilds on: a hash of the original stack identity over the entries
// released by the device's upgrade date, so every device sharing a
// firmware stack that upgrades on the same date converges on the same
// 1.3 fingerprint (shared ODM builds stay shared after the update).
// The pick is the hash%n-th of the n entries released before upAt,
// counted in corpus order as ModernAsOf filters them, or the first
// entry when none had shipped yet. The corpus is not sorted by date, so
// the pick walks the filter instead of searching; it allocates nothing
// and returns a pointer into modernCorpus.
func upgradeEntryFor(seed int64, stackID string, upAt time.Time) *libcorpus.ModernEntry {
	all := modernCorpus()
	n := 0
	for i := range all {
		if all[i].Released.Before(upAt) {
			n++
		}
	}
	if n == 0 {
		return &all[0]
	}
	k := driftHash(seed, "fw-lib", stackID) % uint64(n)
	for i := range all {
		if !all[i].Released.Before(upAt) {
			continue
		}
		if k == 0 {
			return &all[i]
		}
		k--
	}
	panic("dataset: upgradeEntryFor: unreachable")
}

// fwStackPrefix marks upgraded stack identities. The prefix embeds the
// library the firmware rebuilt on, so upgraded records intern fresh
// stack symbols — the analysis layer's (stack, SNI) parse memo stays
// sound because a symbol still maps to exactly one set of hello bytes.
const fwStackPrefix = "fw:"

// driftActive reports whether asof lies past the drift window's start;
// earlier (and zero) dates leave the generator's output untouched.
func driftActive(asof time.Time) bool {
	return !asof.IsZero() && asof.After(driftStart)
}

// fwKey memoizes one upgraded stack symbol: the original stack and the
// modern-corpus entry it rebuilt on.
type fwKey struct {
	stack intern.Symbol
	entry *libcorpus.ModernEntry
}

// tmpl13Key identifies one 1.3 hello template. buildHelloTemplate13
// reads only the entry's print and the SNI, so stacks that rebuilt on
// the same library share templates.
type tmpl13Key struct {
	entry *libcorpus.ModernEntry
	sni   intern.Symbol
}

// driftStamper stamps the records of devices upgraded by Config.AsOf
// straight from 1.3-era templates while Generate mints them. The client
// random comes from the same single rng read as a paper-era stamp, so
// the rand stream — and every other record — is unchanged by drift.
type driftStamper struct {
	seed  int64
	asof  time.Time
	tab   *intern.Table
	fwSym map[fwKey]intern.Symbol
	tmpl  map[tmpl13Key][]byte

	// lastDev is the device of the latest stamp: Generate emits each
	// device's records contiguously, so a change of device counts one
	// more upgraded device.
	lastDev                           intern.Symbol
	devicesUpgraded, recordsRestamped int64
}

// newDriftStamper returns the stamper for cfg, or nil when cfg.AsOf
// does not reach past the drift window's start.
func newDriftStamper(cfg Config, tab *intern.Table) *driftStamper {
	if !driftActive(cfg.AsOf) {
		return nil
	}
	return &driftStamper{
		seed:  cfg.Seed,
		asof:  cfg.AsOf,
		tab:   tab,
		fwSym: map[fwKey]intern.Symbol{},
		tmpl:  map[tmpl13Key][]byte{},
	}
}

// upgradedBy returns the device's upgrade date and whether the update
// has landed by the stamper's asof (always false on a nil stamper).
func (d *driftStamper) upgradedBy(deviceID string, profile SecurityProfile) (time.Time, bool) {
	if d == nil {
		return time.Time{}, false
	}
	at, ok := upgradeDate(d.seed, deviceID, profile)
	return at, ok && !at.After(d.asof)
}

// stamp appends one upgraded record's 1.3 hello for device devSym, the
// original stack (stackID, interned as stackSym) and SNI, and returns
// the upgraded stack symbol, the record span, and whether the template
// was cached.
func (d *driftStamper) stamp(devSym intern.Symbol, stackID string, stackSym, sniSym intern.Symbol, upAt time.Time, cols *columns, rng *rand.Rand) (sym intern.Symbol, off, n uint32, hit bool) {
	if devSym != d.lastDev {
		d.lastDev = devSym
		d.devicesUpgraded++
	}
	entry := upgradeEntryFor(d.seed, stackID, upAt)
	fk := fwKey{stack: stackSym, entry: entry}
	sym, ok := d.fwSym[fk]
	if !ok {
		sym = d.tab.Intern(fwStackPrefix + entry.Name() + ":" + stackID)
		d.fwSym[fk] = sym
	}
	tk := tmpl13Key{entry: entry, sni: sniSym}
	tmpl, hit := d.tmpl[tk]
	if !hit {
		tmpl = buildHelloTemplate13(entry.Print, d.tab.Str(sniSym))
		d.tmpl[tk] = tmpl
	}
	off, n = stampTemplate(cols, tmpl, rng)
	d.recordsRestamped++
	return sym, off, n, hit
}

// report adds the drift counters to m (a no-op on a nil stamper or nil
// registry, so paper-window runs register no drift metrics).
func (d *driftStamper) report(m *obs.Registry) {
	if d == nil || m == nil {
		return
	}
	m.Counter("dataset_drift_upgraded_devices_total").Add(d.devicesUpgraded)
	m.Counter("dataset_drift_restamped_records_total").Add(d.recordsRestamped)
}

// driftKeyShareData fills the template's x25519 share with a fixed
// pattern; like the zeroed client random it is a placeholder stamped
// into every template, not per-record entropy.
func driftKeyShareData() []byte {
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(7 + i*13)
	}
	return data
}

// buildHelloTemplate13 marshals a 1.3-capable hello template: the plain
// template skeleton with real supported_versions / supported_groups /
// signature_algorithms / psk_key_exchange_modes / key_share payloads
// filled in place of the type-only markers, so the record negotiates
// TLS 1.3 against the simulated servers and fingerprints as a 1.3
// client. Extension order is the print's order (setExtension replaces
// in place).
func buildHelloTemplate13(print fingerprint.Fingerprint, sni string) []byte {
	ch := helloSkeleton(print, sni)
	ch.SetSupportedVersions([]uint16{
		uint16(tlswire.VersionTLS13), uint16(tlswire.VersionTLS12),
	})
	ch.SetSupportedGroups([]uint16{
		tlswire.GroupX25519, tlswire.GroupP256, tlswire.GroupP384,
	})
	ch.SetSignatureAlgorithms([]uint16{0x0403, 0x0804, 0x0401, 0x0503, 0x0805})
	ch.SetPSKKeyExchangeModes([]byte{1})
	ch.SetKeyShares([]tlswire.KeyShare{{Group: tlswire.GroupX25519, Data: driftKeyShareData()}})
	raw, err := ch.Marshal()
	if err != nil {
		panic("dataset: marshal 1.3 hello: " + err.Error())
	}
	return raw
}

// vendorProfiles maps each vendor name to its security era, built once;
// the map is shared and read-only.
var vendorProfiles = sync.OnceValue(func() map[string]SecurityProfile {
	profiles := map[string]SecurityProfile{}
	for _, v := range Vendors() {
		profiles[v.Name] = v.Profile
	}
	return profiles
})

// AdoptionPoint is one row of the adoption curve: the device population
// bucketed by the best TLS version its firmware proposes at Date. The
// three buckets always sum to the full population.
type AdoptionPoint struct {
	Date time.Time
	// TLS13 counts devices upgraded to a 1.3-era stack by Date.
	TLS13 int
	// TLS12 counts un-upgraded devices whose best stack proposes 1.2.
	TLS12 int
	// Legacy counts un-upgraded devices stuck below TLS 1.2.
	Legacy int
}

// Total is the population the point buckets.
func (p AdoptionPoint) Total() int { return p.TLS13 + p.TLS12 + p.Legacy }

// legacyDevice reports whether every stack of the device proposes below
// TLS 1.2 (the pre-drift "legacy" bucket).
func legacyDevice(d *Device) bool {
	for _, s := range d.Stacks {
		if s.Print.Version >= tlswire.VersionTLS12 {
			return false
		}
	}
	return true
}

// AdoptionCurve buckets the device population at each date. Dates are
// evaluated against the same hash schedule the generator materializes,
// so the curve at ds.Config.AsOf matches the generated records exactly,
// and the TLS13 column is nondecreasing over increasing dates. Each
// device's upgrade date and legacy bucket are computed once per call,
// not once per date.
func (ds *Dataset) AdoptionCurve(dates []time.Time) []AdoptionPoint {
	type devState struct {
		at       time.Time
		upgrades bool
		legacy   bool
	}
	profiles := vendorProfiles()
	states := make([]devState, len(ds.Devices))
	for i, d := range ds.Devices {
		at, ok := upgradeDate(ds.Config.Seed, d.ID, profiles[d.Vendor])
		states[i] = devState{at: at, upgrades: ok, legacy: legacyDevice(d)}
	}
	out := make([]AdoptionPoint, 0, len(dates))
	for _, date := range dates {
		pt := AdoptionPoint{Date: date}
		drifting := date.After(driftStart)
		for _, st := range states {
			switch {
			case drifting && st.upgrades && !st.at.After(date):
				pt.TLS13++
			case st.legacy:
				pt.Legacy++
			default:
				pt.TLS12++
			}
		}
		out = append(out, pt)
	}
	return out
}

// TLS13Fraction is the fraction of devices upgraded to a 1.3-era stack
// by asof (0 for the paper window and earlier).
func (ds *Dataset) TLS13Fraction(asof time.Time) float64 {
	if len(ds.Devices) == 0 {
		return 0
	}
	pt := ds.AdoptionCurve([]time.Time{asof})[0]
	return float64(pt.TLS13) / float64(pt.Total())
}

// StragglerRow is one vendor's downgrade-straggler tally: devices that
// will never upgrade off their paper-era stack.
type StragglerRow struct {
	Vendor     string
	Devices    int
	Stragglers int
}

// Fraction is the vendor's straggler share.
func (r StragglerRow) Fraction() float64 {
	if r.Devices == 0 {
		return 0
	}
	return float64(r.Stragglers) / float64(r.Devices)
}

// DowngradeStragglers tallies, per vendor, the devices whose firmware
// never leaves the paper-era stack — the population still proposing
// 1.2-and-below hellos at the end of the timeline. Sorted by straggler
// count descending, then vendor name, for stable report rows.
func (ds *Dataset) DowngradeStragglers() []StragglerRow {
	profiles := vendorProfiles()
	byVendor := map[string]*StragglerRow{}
	var order []string
	for _, d := range ds.Devices {
		row := byVendor[d.Vendor]
		if row == nil {
			row = &StragglerRow{Vendor: d.Vendor}
			byVendor[d.Vendor] = row
			order = append(order, d.Vendor)
		}
		row.Devices++
		if _, ok := upgradeDate(ds.Config.Seed, d.ID, profiles[d.Vendor]); !ok {
			row.Stragglers++
		}
	}
	out := make([]StragglerRow, 0, len(order))
	for _, v := range order {
		out = append(out, *byVendor[v])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stragglers != out[j].Stragglers {
			return out[i].Stragglers > out[j].Stragglers
		}
		return out[i].Vendor < out[j].Vendor
	})
	return out
}
