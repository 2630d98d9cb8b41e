package persist

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
)

func batchRecord(t *testing.T, key string, val uint64) Record {
	t.Helper()
	rec, err := FromSnapshot(key, core.Snapshot{
		State:   crdt.NewGCounter().Inc("n1", val),
		NextReq: val,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestSaveBatchRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 6; i++ {
		recs = append(recs, batchRecord(t, fmt.Sprintf("key/%d", i), uint64(i+1)))
	}
	if err := st.SaveBatch(recs); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := st.LoadAll(RecoverStrict)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(got) != len(recs) {
		t.Fatalf("loaded %d (skipped %d), want %d", len(got), skipped, len(recs))
	}
	for i, ks := range got {
		if v := ks.Snap.State.(*crdt.GCounter).Value(); v != uint64(i+1) {
			t.Fatalf("key %q = %d, want %d", ks.Key, v, i+1)
		}
	}
	if err := st.SaveBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestSaveBatchOverwritesAndLastWins: batches supersede prior snapshots,
// and a (caller-error) duplicate key inside one batch resolves to the
// later record.
func TestSaveBatchOverwritesAndLastWins(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveBatch([]Record{batchRecord(t, "k", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveBatch([]Record{batchRecord(t, "k", 2), batchRecord(t, "k", 7)}); err != nil {
		t.Fatal(err)
	}
	got, _, err := st.LoadAll(RecoverStrict)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Snap.State.(*crdt.GCounter).Value() != 7 {
		t.Fatalf("after duplicate-key batch: %+v", got)
	}
}

// TestSaveBatchConcurrentDisjointKeys: writers of disjoint key sets (one
// per shard persister) may share a Store. Each goroutine saves its own
// keys many times, so first saves, appends and compactions interleave
// across goroutines; every key must load as its last save.
func TestSaveBatchConcurrentDisjointKeys(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 1,000 frames of ~80 bytes outgrow compactBytes once per key.
	const writers, keys, rounds = 4, 4, 1000
	batches := make([][][]Record, writers)
	for w := range batches {
		for r := 1; r <= rounds; r++ {
			var recs []Record
			for k := 0; k < keys; k++ {
				recs = append(recs, batchRecord(t, fmt.Sprintf("w%d/k%d", w, k), uint64(r)))
			}
			batches[w] = append(batches[w], recs)
		}
	}
	var wg sync.WaitGroup
	for w := range batches {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r, recs := range batches[w] {
				if err := st.SaveBatch(recs); err != nil {
					t.Errorf("writer %d round %d: %v", w, r+1, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, _, err := st.LoadAll(RecoverStrict)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*keys {
		t.Fatalf("loaded %d keys, want %d", len(got), writers*keys)
	}
	for _, ks := range got {
		if v := ks.Snap.State.(*crdt.GCounter).Value(); v != rounds {
			t.Fatalf("key %q = %d, want the last save (%d)", ks.Key, v, rounds)
		}
	}
}

// TestSaveBatchTornByHookChangesNothing: a hook failure before the
// batch's writes (the modeled crash point) must leave every committed
// snapshot byte-identical, no batch file visible and no temp file behind.
func TestSaveBatchTornByHookChangesNothing(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	var sawKeys []string
	st, err := Open(dir, Options{
		BeforeBatchWrite: func(keys []string) error {
			sawKeys = append([]string(nil), keys...)
			return boom
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A committed value for k0 predates the torn batch. It goes through a
	// hook-less store on the same directory: the hook fires on Save too.
	plain, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Save(batchRecord(t, "k0", 42)); err != nil {
		t.Fatal(err)
	}
	err = st.SaveBatch([]Record{batchRecord(t, "k0", 43), batchRecord(t, "k1", 9)})
	if !errors.Is(err, boom) {
		t.Fatalf("torn batch err = %v, want the hook's error", err)
	}
	if len(sawKeys) != 2 {
		t.Fatalf("hook saw keys %v, want both batch keys", sawKeys)
	}
	got, _, err := st.LoadAll(RecoverStrict)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != "k0" || got[0].Snap.State.(*crdt.GCounter).Value() != 42 {
		t.Fatalf("after torn batch: %+v (want only k0=42)", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("temp file %q survived the torn batch", e.Name())
		}
	}
}

// TestSaveBatchChargesWriteDelayOnce is the group-commit accounting
// test: N records in one batch pay the emulated device flush once,
// where N serial Saves pay it N times. The margins are wide (4× under
// the serial floor) so scheduler noise cannot flake it.
func TestSaveBatchChargesWriteDelayOnce(t *testing.T) {
	const delay = 20 * time.Millisecond
	const n = 8
	st, err := Open(t.TempDir(), Options{WriteDelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < n; i++ {
		recs = append(recs, batchRecord(t, fmt.Sprintf("k/%d", i), 1))
	}
	start := time.Now()
	if err := st.SaveBatch(recs); err != nil {
		t.Fatal(err)
	}
	batchTime := time.Since(start)

	start = time.Now()
	for _, rec := range recs {
		if err := st.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	serialTime := time.Since(start)

	if serialTime < n*delay {
		t.Fatalf("serial saves took %v, must pay ≥ %v (one delay per save)", serialTime, n*delay)
	}
	if batchTime >= serialTime/4 {
		t.Fatalf("batch took %v vs serial %v; the batch must charge the delay once", batchTime, serialTime)
	}
}
