package simnet

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/pki"
	"repro/internal/tlswire"
)

// Probe errors. Both are terminal in the probe-engine failure taxonomy:
// retrying an unknown or unreachable host cannot succeed.
var (
	// ErrUnknownHost: the SNI resolves to nothing in this world.
	ErrUnknownHost = errors.New("simnet: unknown host")
	// ErrUnreachable: the server exists but cannot be reached (the 43
	// SNIs the paper lost to the 2-year time lag).
	ErrUnreachable = errors.New("simnet: host unreachable")
)

// defaultHandshakeTimeout bounds a handshake when the caller's context
// carries no deadline.
const defaultHandshakeTimeout = 5 * time.Second

// Negotiation is the evidence one handshake attempt yields: the
// certificate chain plus the negotiation behaviour the server exhibited
// (selected version and cipher, echoed extensions, or the refusing
// alert). A refusal is not an error — an alert is the server answering,
// and exactly the evidence active fingerprinting wants; Chain is empty
// in that case.
type Negotiation struct {
	// Chain the server presented (empty when the hello was refused).
	Chain pki.Chain
	// Version the server negotiated.
	Version tlswire.Version
	// Cipher is the selected suite.
	Cipher uint16
	// Echoed lists the ServerHello extension types in emission order.
	Echoed []uint16
	// HelloRetryRequest marks a TLS 1.3 retry: the ServerHello carried
	// the RFC 8446 HRR random, asking for a different key-share group.
	HelloRetryRequest bool
	// RetryGroup is the named group an HRR asked for (0 otherwise).
	RetryGroup uint16
	// Alert is the refusal, when the server sent one instead of a
	// ServerHello.
	Alert *tlswire.Alert
}

// evidenceHello is the canonical ClientHello whose negotiation evidence
// annotates fast probes: TLS 1.2, a suite list overlapping every
// modeled stack, null compression, and the common extension set. It is
// crafted once and only ever read.
var evidenceHello = newEvidenceHello()

func newEvidenceHello() *tlswire.ClientHello {
	ch := &tlswire.ClientHello{
		LegacyVersion: tlswire.VersionTLS12,
		CipherSuites: []uint16{
			0xC02B, 0xC02F, 0xC02C, 0xC030, 0xCCA9, 0xCCA8,
			0x009C, 0x009D, 0xC013, 0xC014, 0x002F, 0x0035, 0x000A,
		},
		CompressionMethods: []byte{0},
		Extensions: []tlswire.Extension{
			{Type: tlswire.ExtRenegotiationInfo, Data: []byte{0}},
			{Type: tlswire.ExtECPointFormats, Data: []byte{1, 0}},
			{Type: tlswire.ExtSessionTicket},
			{Type: tlswire.ExtStatusRequest},
			{Type: tlswire.ExtExtendedMasterSecret},
			{Type: tlswire.ExtMaxFragmentLength, Data: []byte{1}},
		},
	}
	for i := range ch.Random {
		ch.Random[i] = byte(0x5A ^ i)
	}
	return ch
}

// Probe performs a genuine crypto/tls handshake with the server behind
// the SNI, as seen from the vantage, and returns the certificate chain
// the server presented. This is the collection path of Section 5.1.
func (w *World) Probe(sni string, vantage Vantage) (pki.Chain, error) {
	n, err := w.ProbeContext(context.Background(), sni, vantage)
	return n.Chain, err
}

// ProbeContext is Probe with cancellation: the context deadline bounds
// the handshake (defaultHandshakeTimeout when absent), and the installed
// fault schedule (SetFaults) runs before the handshake. The negotiation
// evidence (version, cipher) comes from the genuine crypto/tls
// connection state.
func (w *World) ProbeContext(ctx context.Context, sni string, vantage Vantage) (Negotiation, error) {
	srv, ok := w.Servers[sni]
	if !ok {
		return Negotiation{}, fmt.Errorf("%w: %s", ErrUnknownHost, sni)
	}
	if srv.Unreachable {
		return Negotiation{}, fmt.Errorf("%w: %s", ErrUnreachable, sni)
	}
	if err := w.faults.inject(ctx, sni, vantage, ""); err != nil {
		return Negotiation{}, err
	}
	chain := srv.ChainAt(vantage)
	leafKey := srv.LeafAt(vantage).Key
	if leafKey == nil {
		return Negotiation{}, fmt.Errorf("simnet: no key for %s", sni)
	}

	tlsCert := tls.Certificate{PrivateKey: leafKey}
	for _, c := range chain.Certs {
		tlsCert.Certificate = append(tlsCert.Certificate, c.Raw)
	}

	//lint:allow noclock deadline for a real TLS handshake over net.Pipe needs wall-clock time
	deadline := time.Now().Add(defaultHandshakeTimeout)
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}

	clientSide, serverSide := net.Pipe()
	defer clientSide.Close()

	errCh := make(chan error, 1)
	go func() {
		// Close the raw pipe when done; a TLS-level Close would block on
		// the unbuffered pipe waiting for a close_notify reader.
		defer serverSide.Close()
		sconn := tls.Server(serverSide, &tls.Config{
			Certificates: []tls.Certificate{tlsCert},
			MinVersion:   tls.VersionTLS12,
		})
		sconn.SetDeadline(deadline)
		errCh <- sconn.Handshake()
	}()

	// The deferred clientSide.Close above releases the transport; a
	// TLS-level Close would block sending close_notify into the
	// unbuffered pipe once the server goroutine is gone.
	//lint:allow deferclose the raw pipe under this conn is defer-closed; tls.Conn.Close would deadlock on net.Pipe
	cconn := tls.Client(clientSide, &tls.Config{
		ServerName:         sni,
		InsecureSkipVerify: true, // we validate ourselves, like the study's prober
		MinVersion:         tls.VersionTLS12,
	})
	cconn.SetDeadline(deadline)
	if err := cconn.Handshake(); err != nil {
		<-errCh
		return Negotiation{}, fmt.Errorf("simnet: handshake with %s: %w", sni, err)
	}
	state := cconn.ConnectionState()
	peer := state.PeerCertificates
	// The client side can finish while the server side failed (e.g. its
	// deadline fired flushing the last flight); a silent discard here
	// would hide exactly the flaky-handshake class the engine retries.
	if serr := <-errCh; serr != nil {
		return Negotiation{}, fmt.Errorf("simnet: server-side handshake with %s: %w", sni, serr)
	}

	out := pki.Chain{Certs: make([]*x509.Certificate, len(peer))}
	copy(out.Certs, peer)
	return Negotiation{
		Chain:   out,
		Version: tlswire.Version(state.Version),
		Cipher:  state.CipherSuite,
	}, nil
}

// LeafAt returns the leaf certificate (with its key) for a vantage.
func (s *Server) LeafAt(v Vantage) pki.Certificate {
	if s.VantageLeaves != nil {
		if leaf, ok := s.VantageLeaves[v]; ok {
			return leaf
		}
	}
	return s.Leaf
}

// ProbeFast returns the chain without a TLS handshake — byte-identical to
// what Probe captures, for analysis at scale and benchmarks.
func (w *World) ProbeFast(sni string, vantage Vantage) (pki.Chain, error) {
	n, err := w.ProbeFastContext(context.Background(), sni, vantage)
	return n.Chain, err
}

// ProbeFastContext is ProbeFast with cancellation and fault injection, so
// the resilient engine exercises identical retry paths on both probe
// modes. Negotiation evidence comes from the server's stack model
// answering the canonical evidence hello (which every modeled stack
// accepts, so the chain is always carried alongside).
func (w *World) ProbeFastContext(ctx context.Context, sni string, vantage Vantage) (Negotiation, error) {
	srv, ok := w.Servers[sni]
	if !ok {
		return Negotiation{}, fmt.Errorf("%w: %s", ErrUnknownHost, sni)
	}
	if srv.Unreachable {
		return Negotiation{}, fmt.Errorf("%w: %s", ErrUnreachable, sni)
	}
	if err := w.faults.inject(ctx, sni, vantage, ""); err != nil {
		return Negotiation{}, err
	}
	n := Negotiation{Chain: srv.ChainAt(vantage)}
	if srv.Stack != nil {
		if sh, _ := srv.Stack.Respond(evidenceHello); sh != nil {
			n.Version = sh.SelectedVersion()
			n.Cipher = sh.CipherSuite
			n.Echoed = sh.ExtensionTypes()
		}
	}
	return n, nil
}

// NegotiateFast answers an arbitrary crafted ClientHello with the
// server stack model's response, after the same host/reachability/fault
// gauntlet as ProbeFastContext. The response round-trips through the
// tlswire marshal/parse path, so every battery probe also exercises the
// ServerHello wire format. Each distinct hello (told apart by its
// random) has its own fault stream, so concurrent battery probes of one
// host fail the same way at any worker count. This is the
// active-fingerprinting probe primitive; a refusal alert returns with a nil error and an empty
// chain.
func (w *World) NegotiateFast(ctx context.Context, sni string, vantage Vantage, hello *tlswire.ClientHello) (Negotiation, error) {
	srv, ok := w.Servers[sni]
	if !ok {
		return Negotiation{}, fmt.Errorf("%w: %s", ErrUnknownHost, sni)
	}
	if srv.Unreachable {
		return Negotiation{}, fmt.Errorf("%w: %s", ErrUnreachable, sni)
	}
	if err := w.faults.inject(ctx, sni, vantage, hex.EncodeToString(hello.Random[:])); err != nil {
		return Negotiation{}, err
	}
	if srv.Stack == nil {
		return Negotiation{}, fmt.Errorf("simnet: no stack model for %s", sni)
	}
	sh, alert := srv.Stack.Respond(hello)
	if alert != nil {
		wire := alert.Marshal(hello.LegacyVersion)
		parsed, err := tlswire.ParseAlertRecord(wire)
		if err != nil {
			return Negotiation{}, fmt.Errorf("simnet: alert wire round trip for %s: %w", sni, err)
		}
		return Negotiation{Alert: parsed}, nil
	}
	wire, err := sh.Marshal()
	if err != nil {
		return Negotiation{}, fmt.Errorf("simnet: ServerHello marshal for %s: %w", sni, err)
	}
	parsed, err := tlswire.ParseServerHelloRecord(wire)
	if err != nil {
		return Negotiation{}, fmt.Errorf("simnet: ServerHello wire round trip for %s: %w", sni, err)
	}
	n := Negotiation{
		Chain:             srv.ChainAt(vantage),
		Version:           parsed.SelectedVersion(),
		Cipher:            parsed.CipherSuite,
		Echoed:            parsed.ExtensionTypes(),
		HelloRetryRequest: parsed.IsHelloRetryRequest(),
	}
	if n.HelloRetryRequest {
		if g, ok := parsed.KeyShareGroup(); ok {
			n.RetryGroup = g
		}
	}
	return n, nil
}

// ProbeResult is one (SNI, vantage) capture.
type ProbeResult struct {
	SNI     string
	Vantage Vantage
	Chain   pki.Chain
	Err     error
}

// ProbeAll captures every SNI from every vantage concurrently with
// GOMAXPROCS workers. When realTLS is true every capture is a full
// crypto/tls handshake.
func (w *World) ProbeAll(snis []string, vantages []Vantage, realTLS bool) []ProbeResult {
	return w.ProbeAllWorkers(snis, vantages, realTLS, 0)
}

// ProbeAllWorkers is ProbeAll with an explicit worker count (<= 0 means
// runtime.GOMAXPROCS). Results are returned in deterministic (SNI,
// vantage) order: results[i*len(vantages)+j] is snis[i] at vantages[j],
// independent of worker interleaving.
func (w *World) ProbeAllWorkers(snis []string, vantages []Vantage, realTLS bool, workers int) []ProbeResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]ProbeResult, len(snis)*len(vantages))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				sni, v := snis[idx/len(vantages)], vantages[idx%len(vantages)]
				var chain pki.Chain
				var err error
				if realTLS {
					chain, err = w.Probe(sni, v)
				} else {
					chain, err = w.ProbeFast(sni, v)
				}
				results[idx] = ProbeResult{SNI: sni, Vantage: v, Chain: chain, Err: err}
			}
		}()
	}
	for i := range results {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}
