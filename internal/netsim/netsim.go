// Package netsim models network links deterministically so that
// remote-source access cost and mobile interaction latency are
// reproducible across benchmark runs.
//
// Two abstractions are provided:
//
//   - Link: a request/response cost model. Callers ask "how long does
//     moving N bytes take?" and either sleep for that duration (real
//     elapsed-time experiments) or accumulate it on a virtual clock
//     (fast simulated-time experiments).
//   - Conn: a net.Conn wrapper that injects the Link's latency and
//     bandwidth shaping into a real byte stream, used by the mobile
//     wire protocol tests and demos.
package netsim

import (
	"math/rand"
	"sync"
	"time"
)

// Profile describes a link's characteristics.
type Profile struct {
	// Name identifies the profile in reports.
	Name string
	// RTT is the round-trip time; each request pays RTT/2 in each
	// direction before the first byte moves.
	RTT time.Duration
	// DownBps and UpBps are bandwidths in bytes per second.
	DownBps int64
	UpBps   int64
	// Jitter is the max random extra latency added per direction,
	// uniformly distributed in [0, Jitter].
	Jitter time.Duration
	// LossPct is the probability (0..1) that a message must be
	// retransmitted once (modelled as paying RTT again).
	LossPct float64
}

// Standard profiles used throughout the experiments. Values follow
// commonly cited 2013-era figures for cellular and local links.
var (
	ProfileLAN  = Profile{Name: "LAN", RTT: 500 * time.Microsecond, DownBps: 125_000_000, UpBps: 125_000_000}
	ProfileWiFi = Profile{Name: "WiFi", RTT: 5 * time.Millisecond, DownBps: 6_250_000, UpBps: 6_250_000, Jitter: 2 * time.Millisecond}
	Profile4G   = Profile{Name: "4G", RTT: 50 * time.Millisecond, DownBps: 1_500_000, UpBps: 750_000, Jitter: 10 * time.Millisecond, LossPct: 0.005}
	Profile3G   = Profile{Name: "3G", RTT: 150 * time.Millisecond, DownBps: 250_000, UpBps: 100_000, Jitter: 30 * time.Millisecond, LossPct: 0.02}
	Profile2G   = Profile{Name: "2G", RTT: 400 * time.Millisecond, DownBps: 20_000, UpBps: 10_000, Jitter: 80 * time.Millisecond, LossPct: 0.05}
)

// Link is a deterministic cost model over a Profile. It is safe for
// concurrent use; the random stream is protected by a mutex so
// concurrent callers still see a reproducible *set* of delays for a
// given seed (order may vary under the Go scheduler).
type Link struct {
	profile Profile

	mu  sync.Mutex
	rng *rand.Rand

	// virtual clock accumulation (SimulatedTime mode)
	simulated bool
	simNow    time.Duration

	bytesDown int64
	bytesUp   int64
	requests  int64
}

// NewLink creates a link over profile with a seeded random stream.
// When simulated is true, Wait* calls advance a virtual clock instead
// of sleeping, so experiments over slow profiles run instantly.
func NewLink(profile Profile, seed int64, simulated bool) *Link {
	return &Link{
		profile:   profile,
		rng:       rand.New(rand.NewSource(seed)),
		simulated: simulated,
	}
}

// Profile returns the link's profile.
func (l *Link) Profile() Profile { return l.profile }

// transferTime computes the one-way cost of moving n bytes at bps
// including half-RTT, jitter, and possible retransmission.
func (l *Link) transferTime(n int64, bps int64) time.Duration {
	p := l.profile
	d := p.RTT / 2
	if bps > 0 && n > 0 {
		d += time.Duration(float64(n) / float64(bps) * float64(time.Second))
	}
	if p.Jitter > 0 {
		d += time.Duration(l.rng.Int63n(int64(p.Jitter) + 1))
	}
	if p.LossPct > 0 && l.rng.Float64() < p.LossPct {
		d += p.RTT
	}
	return d
}

// RequestCost returns the modelled duration of a full request/response
// exchange sending reqBytes up and receiving respBytes down, and
// records the traffic. It advances the virtual clock or sleeps
// depending on the link mode.
func (l *Link) RequestCost(reqBytes, respBytes int64) time.Duration {
	l.mu.Lock()
	d := l.transferTime(reqBytes, l.profile.UpBps) + l.transferTime(respBytes, l.profile.DownBps)
	l.bytesUp += reqBytes
	l.bytesDown += respBytes
	l.requests++
	if l.simulated {
		l.simNow += d
		l.mu.Unlock()
		return d
	}
	l.mu.Unlock()
	time.Sleep(d)
	return d
}

// Advance charges d of non-transfer time to the link's timeline: in
// simulated mode the virtual clock moves forward instantly; in real
// mode the caller sleeps. Retry backoff and brownout penalties use it
// so waiting appears on the same timeline as request costs.
func (l *Link) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	l.mu.Lock()
	if l.simulated {
		l.simNow += d
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	time.Sleep(d)
}

// Now returns the virtual clock value (simulated mode only); in real
// mode it returns the accumulated cost that RequestCost charged.
func (l *Link) Now() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.simNow
}

// Stats reports the traffic moved over the link so far.
func (l *Link) Stats() (requests, bytesUp, bytesDown int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.requests, l.bytesUp, l.bytesDown
}

// ResetStats zeroes the traffic counters and virtual clock.
func (l *Link) ResetStats() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests, l.bytesUp, l.bytesDown, l.simNow = 0, 0, 0, 0
}
