package fingerprint

import (
	"sort"
	"sync"

	"repro/internal/intern"
)

// LibraryEntry is one known TLS library build in the matching corpus:
// a library family + version and the fingerprint its default client emits.
type LibraryEntry struct {
	// Family is the library family ("OpenSSL", "wolfSSL", "Mbed TLS",
	// "curl+OpenSSL", "curl+wolfSSL").
	Family string
	// Version is the human version string ("1.0.2u", "7.68.0/1.1.1i").
	Version string
	// Print is the fingerprint emitted by the library's default client.
	Print Fingerprint
	// ReleaseYear of the version, for "outdated" reporting.
	ReleaseYear int
	// SupportedIn2020 reports whether the version still received updates
	// at the end of the study's capture window.
	SupportedIn2020 bool
}

// Name returns "Family Version".
func (e LibraryEntry) Name() string { return e.Family + " " + e.Version }

// Matcher indexes a corpus of known-library fingerprints for exact and
// semantics-aware lookups. All lookup methods are safe for concurrent use:
// the indices are immutable after NewMatcher and the semantic-match memo
// is guarded by a lock, so one Matcher can be shared by every table of a
// study rendered in parallel.
type Matcher struct {
	entries []LibraryEntry
	byKey   map[string][]int // fingerprint key -> entry indices
	// byKeyBest resolves the highest-version entry per fingerprint key at
	// build time, so MatchExact is a single map hit instead of a version
	// scan per call.
	byKeyBest map[string]LibraryEntry
	// arena/byInternedBest are the symbol-keyed fast path: MatchExact
	// interns the query's suite and extension lists (alloc-free once
	// warm) and hits a comparable-struct map instead of building the
	// 2-alloc Key() string per call. Interned identity and Key()
	// identity partition fingerprints identically — both encode the
	// exact (version, suites, extensions) tuple.
	arena          *intern.Arena
	byInternedBest map[Interned]LibraryEntry

	// Semantic index: the corpus collapses to few distinct ciphersuite
	// lists (curl builds only vary extensions), so the B.2 matcher scans
	// suite-list groups instead of every entry.
	groups       []*suiteGroup
	byOrderedKey map[string]*suiteGroup
	bySortedKey  map[string][]*suiteGroup

	// semMu/semMemo memoize MatchSemantics by device suite-list key: the
	// component-set scan runs once per distinct list and every table
	// (Table 11, Figure 8, ...) shares the result.
	semMu   sync.RWMutex
	semMemo map[string]SemanticsMatch
}

// suiteGroup is one distinct corpus ciphersuite list with precomputed
// component sets and the highest-version entry proposing it.
type suiteGroup struct {
	suites           []uint16
	kex, cipher, mac map[string]bool
	best             LibraryEntry
}

// NewMatcher builds a matcher over the given corpus.
func NewMatcher(entries []LibraryEntry) *Matcher {
	m := &Matcher{
		entries:        entries,
		byKey:          make(map[string][]int, len(entries)),
		byKeyBest:      make(map[string]LibraryEntry, len(entries)),
		arena:          intern.NewArena(),
		byInternedBest: make(map[Interned]LibraryEntry, len(entries)),
		byOrderedKey:   map[string]*suiteGroup{},
		bySortedKey:    map[string][]*suiteGroup{},
		semMemo:        map[string]SemanticsMatch{},
	}
	for i, e := range entries {
		k := e.Print.Key()
		m.byKey[k] = append(m.byKey[k], i)
		if best, ok := m.byKeyBest[k]; !ok || versionLess(best.Version, e.Version) {
			m.byKeyBest[k] = e
			m.byInternedBest[e.Print.Intern(m.arena)] = e
		}

		okey := SuiteListKey(e.Print.CipherSuites)
		g, ok := m.byOrderedKey[okey]
		if !ok {
			kex, cipher, mac := componentSets(e.Print.CipherSuites)
			g = &suiteGroup{
				suites: e.Print.CipherSuites,
				kex:    kex, cipher: cipher, mac: mac,
				best: e,
			}
			m.byOrderedKey[okey] = g
			m.groups = append(m.groups, g)
			skey := SuiteListKey(sortedSuites(e.Print.CipherSuites))
			m.bySortedKey[skey] = append(m.bySortedKey[skey], g)
		} else if versionLess(g.best.Version, e.Version) {
			g.best = e
		}
	}
	return m
}

// SuiteListKey is a fast binary key over a suite list: two bytes per
// suite, so two lists share a key exactly when they are equal.
func SuiteListKey(ids []uint16) string {
	b := make([]byte, 2*len(ids))
	for i, id := range ids {
		b[2*i] = byte(id >> 8)
		b[2*i+1] = byte(id)
	}
	return string(b)
}

func sortedSuites(ids []uint16) []uint16 {
	out := append([]uint16(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Dedup.
	n := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// CorpusSize returns the number of library entries indexed.
func (m *Matcher) CorpusSize() int { return len(m.entries) }

// DistinctFingerprints returns how many distinct fingerprints the corpus
// contains (consecutive library versions often share a fingerprint).
func (m *Matcher) DistinctFingerprints() int { return len(m.byKey) }

// MatchExact returns the known library matching the fingerprint exactly on
// the 3-tuple, if any. When several versions share the fingerprint, the
// highest version is returned, mirroring Section 4.1 ("if OpenSSL versions
// i through j share fingerprint F we report version j"). The winning
// version per key is resolved once at NewMatcher time.
func (m *Matcher) MatchExact(f Fingerprint) (LibraryEntry, bool) {
	best, ok := m.byInternedBest[f.Intern(m.arena)]
	return best, ok
}

// MatchExactInterned is MatchExact for a fingerprint already interned
// on this matcher's Arena (see Arena): a single comparable-map hit.
func (m *Matcher) MatchExactInterned(f Interned) (LibraryEntry, bool) {
	best, ok := m.byInternedBest[f]
	return best, ok
}

// Arena exposes the matcher's intern arena so callers can pre-intern
// fingerprints once and query with MatchExactInterned in hot loops.
func (m *Matcher) Arena() *intern.Arena { return m.arena }

// SemanticsMatch is the result of the semantics-aware matcher: the best
// category achieved across the corpus and the closest library under that
// category (ties broken by ciphersuite Jaccard similarity, then version).
type SemanticsMatch struct {
	Category MatchCategory
	Library  LibraryEntry
	// Jaccard is the ciphersuite-set similarity to the chosen library.
	Jaccard float64
}

// MatchSemantics runs the Appendix B.2 matcher: it classifies the device
// ciphersuite list against the corpus and returns the best category found.
// A result with Category == Customization has no meaningful Library.
//
// Results are memoized per distinct suite list (thread-safe), so the
// expensive component-set scan happens once per list no matter how many
// tables replay the corpus.
func (m *Matcher) MatchSemantics(deviceSuites []uint16) SemanticsMatch {
	memoKey := SuiteListKey(deviceSuites)
	m.semMu.RLock()
	cached, ok := m.semMemo[memoKey]
	m.semMu.RUnlock()
	if ok {
		return cached
	}
	res := m.matchSemanticsUncached(deviceSuites)
	m.semMu.Lock()
	m.semMemo[memoKey] = res
	m.semMu.Unlock()
	return res
}

// matchSemanticsUncached is the memo-free matcher body.
func (m *Matcher) matchSemanticsUncached(deviceSuites []uint16) SemanticsMatch {
	// Exact list match: direct lookup.
	if g, ok := m.byOrderedKey[SuiteListKey(deviceSuites)]; ok {
		return SemanticsMatch{
			Category: ExactCiphersuites,
			Library:  g.best,
			Jaccard:  JaccardUint16(deviceSuites, g.suites),
		}
	}
	// Same set, different order: sorted-key lookup.
	if gs, ok := m.bySortedKey[SuiteListKey(sortedSuites(deviceSuites))]; ok {
		best := gs[0]
		for _, g := range gs[1:] {
			if versionLess(best.best.Version, g.best.Version) {
				best = g
			}
		}
		return SemanticsMatch{
			Category: SameSetDiffOrder,
			Library:  best.best,
			Jaccard:  JaccardUint16(deviceSuites, best.suites),
		}
	}
	// Component comparisons against the distinct suite-list groups.
	dk, dc, dm := componentSets(deviceSuites)
	best := SemanticsMatch{Category: Customization}
	for _, g := range m.groups {
		var cat MatchCategory
		switch {
		case setsEqual(dk, g.kex) && setsEqual(dc, g.cipher) && setsEqual(dm, g.mac):
			cat = SameComponent
		case setsEqual(dk, g.kex) && setsSimilar(dc, g.cipher) && setsSimilar(dm, g.mac):
			cat = SimilarComponent
		default:
			continue
		}
		if cat < best.Category {
			continue
		}
		j := JaccardUint16(deviceSuites, g.suites)
		if cat > best.Category || j > best.Jaccard ||
			(j == best.Jaccard && versionLess(best.Library.Version, g.best.Version)) {
			best = SemanticsMatch{Category: cat, Library: g.best, Jaccard: j}
		}
	}
	return best
}

// Entries returns the corpus sorted by family then version.
func (m *Matcher) Entries() []LibraryEntry {
	out := append([]LibraryEntry(nil), m.entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		return versionLess(out[i].Version, out[j].Version)
	})
	return out
}

// versionLess compares dotted version strings numerically where possible,
// falling back to lexicographic comparison for suffixes ("1.0.2u" etc.).
func versionLess(a, b string) bool {
	for {
		da, ra := versionToken(a)
		db, rb := versionToken(b)
		if da != db {
			return da < db
		}
		if ra == "" || rb == "" {
			return len(ra) < len(rb) || (len(ra) == len(rb) && ra < rb)
		}
		if ra[0] != rb[0] && (ra[0] == '.' || rb[0] == '.') {
			return ra < rb
		}
		// Skip one separator/letter and continue.
		if ra[0] == rb[0] {
			a, b = ra[1:], rb[1:]
			continue
		}
		return ra < rb
	}
}

// versionToken splits the leading integer off a version string.
func versionToken(s string) (int, string) {
	n := 0
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		n = n*10 + int(s[i]-'0')
		i++
	}
	return n, s[i:]
}
