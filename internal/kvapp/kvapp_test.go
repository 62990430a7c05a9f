package kvapp

import (
	"testing"

	"repro/internal/ids"
)

func smallConfig(mode ids.Mode, seed int64, logs RunLogs) Config {
	return Config{
		Replicas:     2,
		Clients:      3,
		OpsPerClient: 6,
		Mode:         mode,
		Jitter:       5,
		Seed:         seed,
		Chaos:        DefaultChaos(),
		Logs:         logs,
	}
}

func TestKVStoreRecordReplay(t *testing.T) {
	rec, logs, err := Run(smallConfig(ids.Record, 11, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ServedOps == 0 || rec.PrimaryDigest == 0 {
		t.Fatalf("record produced empty result: %+v", rec)
	}
	for i := 0; i < 2; i++ {
		rep, _, err := Run(smallConfig(ids.Replay, int64(5000+i), logs))
		if err != nil {
			t.Fatal(err)
		}
		if rep.PrimaryDigest != rec.PrimaryDigest {
			t.Errorf("replay %d primary digest %x, record %x", i, rep.PrimaryDigest, rec.PrimaryDigest)
		}
		if rep.ClientDigest != rec.ClientDigest {
			t.Errorf("replay %d client digest %x, record %x", i, rep.ClientDigest, rec.ClientDigest)
		}
		if rep.ServedOps != rec.ServedOps {
			t.Errorf("replay %d served %d ops, record %d", i, rep.ServedOps, rec.ServedOps)
		}
		for r := range rec.ReplicaDigests {
			if rep.ReplicaDigests[r] != rec.ReplicaDigests[r] {
				t.Errorf("replay %d replica %d digest %x, record %x",
					i, r, rep.ReplicaDigests[r], rec.ReplicaDigests[r])
			}
		}
	}
}

func TestKVStoreFreeRunsDiffer(t *testing.T) {
	// With lossy replication and racy bookkeeping, replica contents and
	// client observations should vary across free runs.
	seen := map[uint64]bool{}
	for run := 0; run < 6; run++ {
		res, _, err := Run(smallConfig(ids.Passthrough, int64(900+run), nil))
		if err != nil {
			t.Fatal(err)
		}
		key := res.ClientDigest
		for _, d := range res.ReplicaDigests {
			key = key*31 + d
		}
		seen[key] = true
		if len(seen) >= 2 {
			return
		}
	}
	t.Skip("kv store outcomes identical across free runs")
}

// TestKVStoreShardedRecordReplay is the application-level property test for
// the sharded order mode: across random seeds, a sharded recording of the
// full primary/replica/client topology must replay to identical digests.
// (CausalTrace and PrimaryWAL stay off — they require OrderGlobal.)
func TestKVStoreShardedRecordReplay(t *testing.T) {
	for _, seed := range []int64{3, 41, 977} {
		cfg := smallConfig(ids.Record, seed, nil)
		cfg.OrderMode = ids.OrderSharded
		rec, logs, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rec.ServedOps == 0 || rec.PrimaryDigest == 0 {
			t.Fatalf("seed %d: record produced empty result: %+v", seed, rec)
		}
		rcfg := smallConfig(ids.Replay, seed+9000, logs)
		rcfg.OrderMode = ids.OrderSharded
		rep, _, err := Run(rcfg)
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if rep.PrimaryDigest != rec.PrimaryDigest || rep.ClientDigest != rec.ClientDigest ||
			rep.ServedOps != rec.ServedOps {
			t.Errorf("seed %d: replay (%x,%x,%d) != record (%x,%x,%d)", seed,
				rep.PrimaryDigest, rep.ClientDigest, rep.ServedOps,
				rec.PrimaryDigest, rec.ClientDigest, rec.ServedOps)
		}
		for r := range rec.ReplicaDigests {
			if rep.ReplicaDigests[r] != rec.ReplicaDigests[r] {
				t.Errorf("seed %d: replica %d digest %x, record %x",
					seed, r, rep.ReplicaDigests[r], rec.ReplicaDigests[r])
			}
		}
	}
}

// TestKVStoreShardedRejectsGlobalFeatures: the per-VM feature guards must
// surface through the app config, not deadlock or silently downgrade.
func TestKVStoreShardedRejectsGlobalFeatures(t *testing.T) {
	cfg := smallConfig(ids.Record, 5, nil)
	cfg.OrderMode = ids.OrderSharded
	cfg.CausalTrace = true
	if _, _, err := Run(cfg); err == nil {
		t.Error("sharded + CausalTrace accepted")
	}
}

func TestKVStoreConfigValidation(t *testing.T) {
	if _, _, err := Run(Config{Mode: ids.Record}); err == nil {
		t.Error("zero-sized config accepted")
	}
	if _, _, err := Run(smallConfig(ids.Replay, 1, nil)); err == nil {
		t.Error("replay without logs accepted")
	}
}

func TestUpdateCodec(t *testing.T) {
	for _, c := range []struct{ k, v string }{
		{"", ""}, {"a", "b"}, {"key-11", "value with spaces"},
	} {
		k, v, s := decodeUpdate(encodeUpdate(c.k, c.v, false))
		if k != c.k || v != c.v || s {
			t.Errorf("roundtrip (%q,%q) -> (%q,%q,%v)", c.k, c.v, k, v, s)
		}
	}
	if _, _, s := decodeUpdate(encodeUpdate("x", "y", true)); !s {
		t.Error("sentinel flag lost")
	}
	if _, _, s := decodeUpdate([]byte{1, 2}); !s {
		t.Error("short frame not treated as terminal")
	}
}

func TestDigestStoreOrderIndependent(t *testing.T) {
	a := map[string]string{"x": "1", "y": "2", "z": "3"}
	b := map[string]string{"z": "3", "x": "1", "y": "2"}
	if digestStore(a) != digestStore(b) {
		t.Error("digest depends on map iteration order")
	}
	b["z"] = "4"
	if digestStore(a) == digestStore(b) {
		t.Error("digest blind to value change")
	}
}
