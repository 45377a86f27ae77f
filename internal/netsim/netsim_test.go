package netsim

import (
	"bytes"
	"io"
	"testing"
	"time"
)

func TestSimulatedLinkDeterministic(t *testing.T) {
	run := func() (time.Duration, int64, int64) {
		l := NewLink(Profile3G, 42, true)
		for i := 0; i < 100; i++ {
			l.RequestCost(200, 4096)
		}
		_, up, down := l.Stats()
		return l.Now(), up, down
	}
	t1, up1, down1 := run()
	t2, up2, down2 := run()
	if t1 != t2 || up1 != up2 || down1 != down2 {
		t.Fatalf("same seed diverged: %v/%d/%d vs %v/%d/%d", t1, up1, down1, t2, up2, down2)
	}
	if up1 != 100*200 || down1 != 100*4096 {
		t.Fatalf("traffic counters wrong: up=%d down=%d", up1, down1)
	}
}

func TestSimulatedLinkDoesNotSleep(t *testing.T) {
	l := NewLink(Profile2G, 1, true)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		l.RequestCost(100, 100000)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("simulated link slept: %v elapsed", elapsed)
	}
	if l.Now() < time.Second {
		t.Fatalf("2G virtual time for 1000 large requests = %v, want ≥ 1s", l.Now())
	}
}

func TestRequestCostScalesWithBytes(t *testing.T) {
	// No jitter/loss profile so costs are exact.
	p := Profile{Name: "test", RTT: 10 * time.Millisecond, DownBps: 1000, UpBps: 1000}
	l := NewLink(p, 0, true)
	small := l.RequestCost(0, 100)  // 100 bytes at 1000 B/s = 100ms + RTT
	large := l.RequestCost(0, 1000) // 1s + RTT
	if small != 110*time.Millisecond {
		t.Errorf("small request = %v, want 110ms", small)
	}
	if large != 1010*time.Millisecond {
		t.Errorf("large request = %v, want 1010ms", large)
	}
}

func TestLinkResetStats(t *testing.T) {
	l := NewLink(ProfileLAN, 0, true)
	l.RequestCost(10, 10)
	l.ResetStats()
	req, up, down := l.Stats()
	if req != 0 || up != 0 || down != 0 || l.Now() != 0 {
		t.Fatalf("reset incomplete: %d/%d/%d/%v", req, up, down, l.Now())
	}
}

func TestFasterProfilesAreFaster(t *testing.T) {
	cost := func(p Profile) time.Duration {
		// Strip jitter/loss so the comparison is deterministic.
		p.Jitter = 0
		p.LossPct = 0
		l := NewLink(p, 0, true)
		return l.RequestCost(512, 64*1024)
	}
	lan, wifi, g4, g3, g2 := cost(ProfileLAN), cost(ProfileWiFi), cost(Profile4G), cost(Profile3G), cost(Profile2G)
	if !(lan < wifi && wifi < g4 && g4 < g3 && g3 < g2) {
		t.Fatalf("profile ordering broken: %v %v %v %v %v", lan, wifi, g4, g3, g2)
	}
}

func TestLinkAccessors(t *testing.T) {
	l := NewLink(Profile3G, 1, true)
	if l.Profile().Name != "3G" {
		t.Fatalf("Profile().Name = %v", l.Profile().Name)
	}
}

func TestShapedConnReadPath(t *testing.T) {
	// Data flowing server→client passes the shaped Read: delivery
	// must pay the downlink latency.
	link := NewLink(Profile{Name: "slow", RTT: 60 * time.Millisecond, DownBps: 1 << 30, UpBps: 1 << 30}, 0, false)
	client, server := Pipe(link)
	defer client.Close()
	defer server.Close()
	go server.Write([]byte("response!"))
	start := time.Now()
	buf := make([]byte, 9)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("shaped read took %v, want ≥ 25ms", elapsed)
	}
	_, _, down := link.Stats()
	if down != 9 {
		t.Fatalf("downlink bytes = %d, want 9", down)
	}
}

func TestShapedConnDelivers(t *testing.T) {
	link := NewLink(Profile{Name: "fast", RTT: time.Millisecond, DownBps: 1 << 30, UpBps: 1 << 30}, 0, false)
	client, server := Pipe(link)
	defer client.Close()
	defer server.Close()

	msg := []byte("hello drugtree")
	errc := make(chan error, 1)
	go func() {
		_, err := client.Write(msg)
		errc <- err
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q, want %q", buf, msg)
	}
	_, up, _ := link.Stats()
	if up != int64(len(msg)) {
		t.Fatalf("uplink bytes = %d, want %d", up, len(msg))
	}
}

func TestShapedConnImposesLatency(t *testing.T) {
	link := NewLink(Profile{Name: "slow", RTT: 60 * time.Millisecond, DownBps: 1 << 30, UpBps: 1 << 30}, 0, false)
	client, server := Pipe(link)
	defer client.Close()
	defer server.Close()

	start := time.Now()
	go client.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("one-way delivery took %v, want ≥ 25ms (half of 60ms RTT)", elapsed)
	}
}
