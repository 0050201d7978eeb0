package fleet

import (
	"sync"
	"testing"
	"time"

	"gridtrust/internal/grid"
	"gridtrust/internal/metrics"
	"gridtrust/internal/trustwire"
)

// servedClaims builds Claims over one peer, s1, whose trust server
// publishes table.
func servedClaims(t *testing.T, table *grid.TrustTable, bound time.Duration) *Claims {
	t.Helper()
	srv, err := trustwire.NewServer(table)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c := newClaims([]ShardConfig{{Name: "s1", TrustAddr: addr.String()}}, bound, time.Second, nil, metrics.NewRegistry())
	t.Cleanup(func() { c.peers[0].rep.Close() })
	return c
}

// TestFuseOTLReadsOneRoundWhole: FuseOTL runs beside gossip rounds and
// pairs each round's table with that round's sync instant.  The clock
// reads the replica's version, so a claim is stamped with the version of
// the table it carries and, at a staleness bound of zero, is fresh only
// while the replica still holds that version.  A fresh read must then
// return that version's level: a table paired with a later round's
// instant would return an older level as fresh.
func TestFuseOTLReadsOneRoundWhole(t *testing.T) {
	table := grid.NewTrustTable()
	if err := table.Set(0, 2, grid.ActCompute, grid.LevelA); err != nil {
		t.Fatal(err)
	}
	c := servedClaims(t, table, 0)
	p := c.peers[0]
	c.now = func() time.Time { return time.Unix(0, int64(p.rep.Version())) }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.rep.Poll(time.Millisecond, stop, func(err error) { c.round(p, err) })
	}()
	go func() {
		defer wg.Done()
		for lvl := grid.LevelB; ; lvl = grid.LevelA + grid.LevelB - lvl {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if err := table.Set(0, 2, grid.ActCompute, lvl); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	toa := grid.MustToA(grid.ActCompute)
	fresh := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		v, held := p.rep.Version(), p.rep.Table()
		got := c.FuseOTL(0, 2, toa, grid.LevelF)
		if p.rep.Version() != v || v == 0 {
			continue // a round landed mid-read
		}
		if got == grid.LevelF {
			continue // this version's claim is not published yet
		}
		fresh++
		if want, _ := held.Get(0, 2, grid.ActCompute); got != want {
			t.Fatalf("fresh claim at version %d fused %v, want the version's own %v", v, got, want)
		}
	}
	if fresh == 0 {
		t.Fatal("no read saw a fresh claim")
	}
}

// TestFreshnessIsOneRule: fusion and the fleet status read one
// staleness rule.  A claim exactly as old as the bound is fused and shown
// fresh; one nanosecond older it is neither.
func TestFreshnessIsOneRule(t *testing.T) {
	table := grid.NewTrustTable()
	if err := table.Set(0, 2, grid.ActCompute, grid.LevelA); err != nil {
		t.Fatal(err)
	}
	const bound = time.Second
	c := servedClaims(t, table, bound)
	t0 := time.Unix(1000, 0)
	clock := t0
	c.now = func() time.Time { return clock }
	p := c.peers[0]
	_, err := p.rep.Sync()
	c.round(p, err)
	toa := grid.MustToA(grid.ActCompute)
	for _, tc := range []struct {
		age   time.Duration
		fresh bool
	}{{0, true}, {bound, true}, {bound + time.Nanosecond, false}} {
		clock = t0.Add(tc.age)
		want := grid.LevelC
		if tc.fresh {
			want = grid.LevelA
		}
		if got := c.FuseOTL(0, 2, toa, grid.LevelC); got != want {
			t.Errorf("age %v: fused OTL = %v, want %v", tc.age, got, want)
		}
		if stale := c.peerInfos()[0].Stale; stale == tc.fresh {
			t.Errorf("age %v: status shows stale=%v, want %v", tc.age, stale, !tc.fresh)
		}
	}
}

// TestFuseOTLAllocatesNothing: the scheduler prices one cell per
// (task, RD), each through FuseOTL.
func TestFuseOTLAllocatesNothing(t *testing.T) {
	table := grid.NewTrustTable()
	if err := table.Set(0, 2, grid.ActCompute, grid.LevelA); err != nil {
		t.Fatal(err)
	}
	c := servedClaims(t, table, time.Hour)
	p := c.peers[0]
	_, err := p.rep.Sync()
	c.round(p, err)
	toa := grid.MustToA(grid.ActCompute)
	if got := c.FuseOTL(0, 2, toa, grid.LevelC); got != grid.LevelA {
		t.Fatalf("fused OTL = %v, want the peer's LevelA", got)
	}
	if n := testing.AllocsPerRun(100, func() { c.FuseOTL(0, 2, toa, grid.LevelC) }); n != 0 {
		t.Fatalf("FuseOTL allocates %v times per call", n)
	}
}
