package det

// FNVSharder maps a sync-object id to its arbitration shard in
// [0, shards) (Config.Shards, docs/scheduler.md): fnv32a over the object
// id's eight little-endian bytes, modulo the shard count. FNV spreads the
// runtime's densely-allocated object ids (tid-and-sequence composites)
// evenly across shards, where a bare modulo would alias objects allocated
// by the same thread into the same shard. A pure function of its inputs,
// which replay determinism depends on. The runtime consults it only for
// shardable operations (mutex lock/unlock, condition wait/signal/
// broadcast); barriers, spawns, joins and exits never reach it.
func FNVSharder(obj uint64, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < 8; i++ {
		h ^= uint32(obj >> (8 * i) & 0xff)
		h *= prime32
	}
	return int(h % uint32(shards))
}
