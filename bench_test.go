// Package repro_bench is the benchmark harness of the reproduction: one
// benchmark per table and figure of the paper. Each benchmark regenerates
// its table/figure from the shared paper-scale study state and, on the
// first iteration, prints the rows/series so `go test -bench .` doubles
// as the experiment runner (see EXPERIMENTS.md).
package repro_bench

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/labdata"
	"repro/internal/libcorpus"
	"repro/internal/lint"
	"repro/internal/localnet"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/simnet"
	"repro/internal/smarttv"
)

var (
	studyOnce sync.Once
	study     *core.Study
)

// paperStudy lazily runs the full paper-scale pipeline once.
func paperStudy(b *testing.B) *core.Study {
	b.Helper()
	studyOnce.Do(func() {
		s, err := core.Run(context.Background(), core.Config{Seed: 20231024, Scale: 1.0, MinSNIUsers: 3})
		if err != nil {
			panic(err)
		}
		study = s
	})
	return study
}

// emit prints a table once per benchmark run (not per iteration).
func emit(b *testing.B, i int, t report.Table) {
	if i == 0 && !testing.Short() {
		t.WriteText(os.Stdout)
		fmt.Println()
	}
}

func BenchmarkTableLibraryMatch(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		res := s.Client.MatchLibraries(s.Matcher)
		emit(b, i, report.LibMatch(res))
	}
}

func BenchmarkTable2DegreeDistribution(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Table2(s.Client.Table2()))
	}
}

func BenchmarkFigure1VendorGraph(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		dot := s.Figure1Dot()
		if i == 0 && !testing.Short() {
			fmt.Printf("== Figure 1: vendor-fingerprint graph == %d bytes of DOT, %d vendors, %d fingerprints\n\n",
				len(dot), s.Client.VendorGraph().NumLefts(), s.Client.VendorGraph().NumRights())
		}
	}
}

func BenchmarkFigure2DoCCDF(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Figure2(s.Client.DoCVendorAll(), s.Client.DoCDeviceAll()))
	}
}

func BenchmarkTable3TopVendorHeterogeneity(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Table3(s.Client.Table3(10)))
	}
}

func BenchmarkFigure3AmazonTypes(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		g := s.Client.TypeGraphForVendor("Amazon")
		if i == 0 && !testing.Short() {
			fmt.Printf("== Figure 3: Amazon device types == %d types, %d fingerprints, %d edges\n\n",
				g.NumLefts(), g.NumRights(), g.NumEdges())
		}
	}
}

func BenchmarkFigure4EchoClusters(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		g := s.Client.DeviceGraphForVendorType("Amazon", dataset.TypeSpeaker)
		if i == 0 && !testing.Short() {
			comps := g.ConnectedComponents()
			fmt.Printf("== Figure 4: Amazon Echo clusters == %d devices, %d fingerprints, %d components\n\n",
				g.NumLefts(), g.NumRights(), len(comps))
		}
	}
}

func BenchmarkTable4VendorJaccard(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Table4(s.Client.Table4(0.2)))
	}
}

func BenchmarkTable5ServerTiedFingerprints(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		rows := s.Client.Table5(2)
		emit(b, i, report.Table5(rows))
		if i == 0 && !testing.Short() {
			fmt.Printf("server-tied SNI fraction: %.2f%%\n\n", 100*s.Client.ServerTiedSNIFraction(s.Matcher))
		}
	}
}

func BenchmarkVulnerabilityStats(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.VulnStats(s.Client.Vulnerabilities()))
	}
}

func BenchmarkTable11SemanticsAware(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Table11(s.Client.Table11(s.Matcher)))
	}
}

func BenchmarkFigure8JaccardHistogram(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Figure8(s.Client.Figure8(s.Matcher, 10)))
	}
}

func BenchmarkTable12TLSVersions(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Table12(s.Client.Table12()))
		if i == 0 && !testing.Short() {
			devices, vendors := s.Client.SSL3Census()
			fmt.Printf("SSL 3.0 stragglers: %d devices across %d vendors\n\n", devices, len(vendors))
		}
	}
}

func BenchmarkFigure9VulnComponents(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		rows := s.Client.Figure9()
		if i == 0 && !testing.Short() {
			fmt.Printf("== Figure 9: vulnerable-component inclusion == %d vendor rows\n\n", len(rows))
		}
	}
}

func BenchmarkFigure10DoCDistribution(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	vendors := []string{"Amazon", "Google", "Samsung", "Synology", "Wyze"}
	for i := 0; i < b.N; i++ {
		total := 0
		for _, v := range vendors {
			total += len(s.Client.DeviceDoCsForVendor(v))
		}
		if i == 0 && !testing.Short() {
			fmt.Printf("== Figure 10: per-device DoC == %d device DoC values across %d sampled vendors\n\n",
				total, len(vendors))
		}
	}
}

func BenchmarkFigure11LowestVulnIndex(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Figure11(s.Client.Figure11()))
	}
}

func BenchmarkFigure12PreferredAlgorithms(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Figure12(s.Client.Figure12()))
	}
}

func BenchmarkOCSPGrease(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Census(s.Client.Census()))
	}
}

func BenchmarkTable6CertDataset(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Table6(s.Server.Table6()))
		if i == 0 && !testing.Short() {
			emit(b, i, report.Sharing(s.Server.Sharing()))
		}
	}
}

func BenchmarkFigure5IssuerMatrix(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		cells := s.Server.Figure5()
		if i == 0 && !testing.Short() {
			frac, devices := s.Server.PrivateLeafFraction()
			fmt.Printf("== Figure 5: issuer matrix == %d cells; private leaves %.2f%% affecting %d devices; exclusive-private vendors %v\n\n",
				len(cells), 100*frac, devices, s.Server.VendorsOnlyPrivate())
		}
	}
}

func BenchmarkTable7ValidationFailures(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.DomainRows("Table 7: Certificate chains with validation failure", s.Server.Table7(), false))
	}
}

func BenchmarkTable8ExpiredCerts(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.DomainRows("Table 8: Expired certificates", s.Server.Table8(), true))
	}
}

func BenchmarkTable14PrivateIssuerChains(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.DomainRows("Table 14: Certificate chains with private issuers", s.Server.Table14(), false))
		if i == 0 && !testing.Short() {
			emit(b, i, report.DomainRows("CN mismatches", s.Server.CNMismatches(), false))
		}
	}
}

func BenchmarkFigure6ValidityCT(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Figure6(s.Server.Figure6()))
	}
}

func BenchmarkTable9NetflixValidity(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Table9(s.Server.Table9()))
	}
}

func BenchmarkFigure13CTPrivateChains(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.CTStats(s.Server.CT()))
	}
}

func BenchmarkTable15PopularSLDs(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Table15(s.Server.Table15(30)))
	}
}

func BenchmarkTable16GeoConsistency(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Table16(s.Server.Table16()))
	}
}

func BenchmarkLabCrossCheck(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	lab := labdata.Capture(s.World, s.Dataset, 99)
	for i := 0; i < b.N; i++ {
		cc := labdata.Compare(lab, s.Server)
		if i == 0 && !testing.Short() {
			fmt.Printf("== Appendix C.4.2 == lab devices=%d vendors=%d; common SNIs=%d sameIssuer=%d diff=%d agreement=%.3f ctGrowth=%d\n\n",
				lab.Devices, lab.Vendors, cc.CommonSNIs, cc.SameIssuer, cc.DiffIssuer, cc.AgreementRate(), cc.CTGrowth)
		}
	}
}

func BenchmarkFigure7SmartTV(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	for i := 0; i < b.N; i++ {
		tv := smarttv.Run(s.World)
		rows := tv.Figure7()
		if i == 0 && !testing.Short() {
			fmt.Println("== Figure 7: leaf certificates in Amazon and Roku groups ==")
			for _, r := range rows {
				fmt.Printf("%-8s %-30s certs=%-4d validity=%d-%dd inCT=%d notInCT=%d\n",
					r.Group, r.Issuer, r.Count, r.MinDays, r.MaxDays, r.InCT, r.NotInCT)
			}
			fmt.Println()
		}
	}
}

func BenchmarkTable17SmartTVChains(b *testing.B) {
	b.ReportAllocs()
	s := paperStudy(b)
	tv := smarttv.Run(s.World)
	for i := 0; i < b.N; i++ {
		rows := tv.Table17()
		if i == 0 && !testing.Short() {
			fmt.Println("== Table 17: invalid/misconfigured chains by smart-TV group ==")
			for _, r := range rows {
				fmt.Printf("%-8s %-24s %-30s fqdns=%d\n", r.Group, r.Status, r.SLD, r.FQDNs)
			}
			fmt.Println()
		}
	}
}

func BenchmarkLocalNetworkPKI(b *testing.B) {
	b.ReportAllocs()
	lab, err := localnet.NewLab(paperStudy(b).World.ProbeTime)
	if err != nil {
		b.Fatal(err)
	}
	defer lab.Close()
	for i := 0; i < b.N; i++ {
		obs, err := lab.ObserveAll()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !testing.Short() {
			fmt.Println("== Section 6.2: PKI on the local network ==")
			for _, o := range obs {
				fmt.Printf("%-18s chain=%d leafCN=%q cnIsIP=%v validity=%dd rootInStores=%v inCT=%v\n",
					o.Device, o.ChainLen, o.LeafCN, o.CNIsIP, o.ValidityDays, o.RootInStores, o.InCT)
			}
			fmt.Println()
		}
	}
}

// BenchmarkAblationRealTLSVsFastProbe quantifies the cost of probing with
// genuine crypto/tls handshakes versus the direct chain path — the design
// choice DESIGN.md calls out for the collection pipeline.
func BenchmarkAblationRealTLSVsFastProbe(b *testing.B) {
	b.ReportAllocs()
	ds := dataset.Generate(dataset.Config{Seed: 5, Scale: 0.1})
	snis := ds.SNIsByMinUsers(2)
	world := simnet.Build(simnet.Config{Seed: 6, SNIs: snis})
	var sni string
	for s, srv := range world.Servers {
		if !srv.Unreachable {
			sni = s
			break
		}
	}
	b.Run("real-tls", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := world.Probe(sni, simnet.VantageNewYork); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := world.ProbeFast(sni, simnet.VantageNewYork); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMatcherIndex quantifies the semantic-index optimization
// of the Appendix B.2 matcher: indexed lookup vs a linear scan over the
// full 6,891-entry corpus.
func BenchmarkAblationMatcherIndex(b *testing.B) {
	b.ReportAllocs()
	entries := libcorpus.Build()
	matcher := libcorpus.NewMatcher()
	suites := []uint16{0xC030, 0xC02C, 0xC028, 0xC024, 0xC014, 0xC00A, 0x009D, 0x0035, 0x003D}
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matcher.MatchSemantics(suites)
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The pre-optimization algorithm: categorize against every
			// corpus entry and keep the best category.
			best := fingerprint.Customization
			for _, e := range entries {
				if cat := fingerprint.CategorizeAgainst(suites, e.Print.CipherSuites); cat > best {
					best = cat
				}
			}
		}
	})
}

// BenchmarkResilientProbeEngine measures the resilient engine sweeping a
// faulty world: 20% seeded transient failures, retries with full-jitter
// backoff on a virtual clock (no wall sleeps), deterministic ordering.
// The first iteration prints the recovery summary.
func BenchmarkResilientProbeEngine(b *testing.B) {
	b.ReportAllocs()
	ds := dataset.Generate(dataset.Config{Seed: 5, Scale: 0.1})
	snis := ds.SNIsByMinUsers(2)
	world := simnet.Build(simnet.Config{Seed: 6, SNIs: snis})
	clock := probe.NewFakeClock(world.ProbeTime)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// SetFaults resets the per-attempt counters, so every iteration
		// replays the identical fault schedule.
		world.SetFaults(simnet.Faults{Seed: 7, TransientRate: 0.2, Sleep: clock.Sleep})
		eng := probe.New(probe.WorldProber{World: world}, probe.Options{Seed: 7, Clock: clock})
		_, stats := eng.Run(context.Background(), snis, simnet.Vantages())
		if i == 0 && !testing.Short() {
			fmt.Printf("== Probe resilience == jobs=%d attempts=%d retries=%d ok=%d recovered=%d transient=%d terminal=%d breaker-opens=%d\n\n",
				stats.Jobs, stats.Attempts, stats.Retries, stats.Successes,
				stats.RecoveredAfterRetry, stats.TransientFailures, stats.TerminalFailures, stats.BreakerOpens)
		}
	}
}

// BenchmarkEndToEndStudy measures the full pipeline at reduced scale.
func BenchmarkEndToEndStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), core.Config{Seed: int64(i) + 1, Scale: 0.1, MinSNIUsers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateAsOf measures dataset generation replayed at a
// late-timeline date (2025-08-01), where roughly two thirds of the
// devices stamp 1.3-era hellos from the firmware-drift layer.
func BenchmarkGenerateAsOf(b *testing.B) {
	asof := time.Date(2025, 8, 1, 0, 0, 0, 0, time.UTC)
	for _, scale := range []float64{1, 10} {
		b.Run(fmt.Sprintf("scale%g", scale), func(b *testing.B) {
			cfg := dataset.Config{Seed: 1, Scale: scale, AsOf: asof}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dataset.Generate(cfg)
			}
		})
	}
}

// BenchmarkIotlintSelf measures the static-analysis suite linting the
// repository that defines it: all ten analyzers (six AST-local, four
// flow-sensitive on internal/lint/cfg) over every package, type-checked
// from source. The process-wide shared loader makes every iteration
// after the first a pure cache hit, so -benchtime 1x measures the cold
// cost and longer runs converge on the analysis-only cost.
func BenchmarkIotlintSelf(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		diags, err := lint.CheckDirs(".", []string{"./..."}, lint.Suite())
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("self-lint found %d unsuppressed diagnostic(s): %v", len(diags), diags[0])
		}
	}
}
