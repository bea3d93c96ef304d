package simnet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// Fault-injection errors. Both are transient in the probe-engine failure
// taxonomy: a reset or a stall on one attempt says nothing about the next.
var (
	// ErrConnReset: the connection was torn down mid-handshake.
	ErrConnReset = errors.New("simnet: connection reset by peer")
	// ErrStalled: the handshake hung until the client gave up.
	ErrStalled = errors.New("simnet: handshake stalled")
)

// SleepFunc waits for d or until the context is done, returning the
// context error if it fires first. Tests inject a virtual-clock sleeper so
// fault schedules run without wall-clock delay.
type SleepFunc func(ctx context.Context, d time.Duration) error

// RealSleep is the default SleepFunc: a wall-clock timer that honours
// context cancellation.
func RealSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Faults configures deterministic fault injection on the probe path. Every
// decision is a pure function of (Seed, SNI, vantage, attempt number), so a
// given schedule of probes always sees the same faults regardless of worker
// interleaving — the property the retry-trace determinism tests rely on.
type Faults struct {
	// Seed drives every fault decision.
	Seed int64
	// TransientRate is the probability in [0,1] that an attempt fails
	// transiently (reset or stall) before the handshake.
	TransientRate float64
	// ResetFraction splits transient failures between connection resets
	// and stalls. 0 means the default 0.5; negative means stalls only.
	ResetFraction float64
	// LatencyBase and LatencyJitter shape the per-attempt handshake
	// latency: latency = LatencyBase + frac*LatencyJitter with frac
	// deterministic per attempt. Zero means no simulated latency.
	LatencyBase   time.Duration
	LatencyJitter time.Duration
	// StallTimeout bounds how long a stalled handshake hangs before the
	// server gives up on its own (the client's context usually fires
	// first). 0 means the default 30s.
	StallTimeout time.Duration
	// Sleep is the waiting primitive; nil means RealSleep.
	Sleep SleepFunc
}

// faultState tracks per-(SNI, vantage) attempt counters so fault decisions
// depend on the attempt number, not on global call order.
type faultState struct {
	cfg      Faults
	mu       sync.Mutex
	attempts map[string]int
}

// SetFaults installs (or, with a fresh config, resets) fault injection on
// the world. Attempt counters start from zero, so two worlds given the
// same Faults config and probe schedule fail identically.
func (w *World) SetFaults(cfg Faults) {
	w.faults = &faultState{cfg: cfg, attempts: map[string]int{}}
}

// ClearFaults removes fault injection.
func (w *World) ClearFaults() { w.faults = nil }

func (f *faultState) sleep(ctx context.Context, d time.Duration) error {
	if f.cfg.Sleep != nil {
		return f.cfg.Sleep(ctx, d)
	}
	return RealSleep(ctx, d)
}

func (f *faultState) resetFraction() float64 {
	if f.cfg.ResetFraction == 0 {
		return 0.5
	}
	return f.cfg.ResetFraction
}

func (f *faultState) stallTimeout() time.Duration {
	if f.cfg.StallTimeout <= 0 {
		return 30 * time.Second
	}
	return f.cfg.StallTimeout
}

// roll derives a deterministic fraction in [0,1) for one decision kind on
// one attempt. The FNV sum goes through a murmur3 finalizer: FNV-1a alone
// barely moves the high bits when only the trailing byte (the attempt
// number) changes, which would make consecutive attempts share their
// fate — every retry of a failed handshake would fail identically.
func (f *faultState) roll(kind, sni string, v Vantage, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s|%d", f.cfg.Seed, kind, sni, v, attempt)
	return float64(mix64(h.Sum64())>>11) / float64(uint64(1)<<53)
}

// mix64 is the 64-bit murmur3 finalizer (full avalanche).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// inject runs the fault schedule for the next attempt against (sni, v):
// simulated latency first, then possibly a reset or a stall. A nil
// faultState injects nothing. A non-empty stream gives the caller's
// probe its own attempt counter and rolls: several probes that target
// one (sni, v) at once would otherwise draw attempt numbers from a
// shared counter in scheduling order, and their faults would depend on
// the worker count.
func (f *faultState) inject(ctx context.Context, sni string, v Vantage, stream string) error {
	if f == nil {
		return ctx.Err()
	}
	id := sni
	if stream != "" {
		id = sni + "#" + stream
	}
	key := id + "|" + string(v)
	f.mu.Lock()
	f.attempts[key]++
	attempt := f.attempts[key]
	f.mu.Unlock()

	if lat := f.latency(id, v, attempt); lat > 0 {
		if err := f.sleep(ctx, lat); err != nil {
			return fmt.Errorf("simnet: dial %s: %w", sni, err)
		}
	}
	if f.cfg.TransientRate <= 0 || f.roll("fault", id, v, attempt) >= f.cfg.TransientRate {
		return ctx.Err()
	}
	if f.roll("kind", id, v, attempt) < f.resetFraction() {
		return fmt.Errorf("%w: %s (attempt %d)", ErrConnReset, sni, attempt)
	}
	// Stalled handshake: hang until the caller's deadline or the stall
	// window elapses, whichever comes first.
	if err := f.sleep(ctx, f.stallTimeout()); err != nil {
		return fmt.Errorf("%w: %s (attempt %d): %w", ErrStalled, sni, attempt, err)
	}
	return fmt.Errorf("%w: %s (attempt %d)", ErrStalled, sni, attempt)
}

func (f *faultState) latency(sni string, v Vantage, attempt int) time.Duration {
	base, jitter := f.cfg.LatencyBase, f.cfg.LatencyJitter
	if base <= 0 && jitter <= 0 {
		return 0
	}
	return base + time.Duration(f.roll("latency", sni, v, attempt)*float64(jitter))
}
