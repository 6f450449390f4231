package workload

import (
	"math/rand"

	"repro/conc"
	"repro/internal/api"
)

// PARSEC suite: pipelines (dedup, ferret), barrier-heavy kernels
// (canneal, streamcluster) and one EP kernel (swaptions).

// swaptions: EP Monte-Carlo pricing, long compute chunks, private result
// slots.
func swaptions() Spec {
	return Spec{
		Name:  "swaptions",
		Suite: "parsec",
		Class: ClassEP,
		SegmentSize: func(p Params) int {
			return 16*pg + (p.Threads+1)*pg
		},
		Prog: func(p Params) func(api.T) {
			perThread := 4 * p.scale()
			slotOff := func(id int) int { return 16*pg + id*pg }
			return func(t api.T) {
				spawnWorkers(t, p.Threads, func(id int) func(api.T) {
					return func(t api.T) {
						var acc uint64
						for s := 0; s < perThread; s++ {
							t.Compute(180_000) // one swaption's Monte-Carlo paths
							acc = acc*2654435761 + uint64(id*1000+s)
							api.PutU64(t, slotOff(id)+8*s, acc)
						}
					}
				})
				var total uint64
				for id := 0; id < p.Threads; id++ {
					total ^= api.U64(t, slotOff(id))
				}
				api.PutU64(t, 0, total)
			}
		},
	}
}

// streamcluster: barrier-heavy: per iteration every worker evaluates its
// point range, publishes a local cost, and thread 0 reduces between two
// barriers.
func streamcluster() Spec {
	return Spec{
		Name:  "streamcluster",
		Suite: "parsec",
		Class: ClassBarrier,
		SegmentSize: func(p Params) int {
			return 16*pg + 4*pg
		},
		Prog: func(p Params) func(api.T) {
			iters := 12 * p.scale()
			costOff := func(id int) int { return 16*pg + 8*id } // shared page
			medianOff := 17 * pg
			return func(t api.T) {
				bar := t.NewBarrier(p.Threads)
				spawnWorkers(t, p.Threads, func(id int) func(api.T) {
					return func(t api.T) {
						for it := 0; it < iters; it++ {
							t.Compute(180_000)
							api.PutU64(t, costOff(id), uint64((id+1)*(it+1)))
							t.BarrierWait(bar)
							if id == 0 {
								var sum uint64
								for w := 0; w < p.Threads; w++ {
									sum += api.U64(t, costOff(w))
								}
								t.Compute(int64(20 * p.Threads))
								api.PutU64(t, medianOff+8*(it%256), sum)
							}
							t.BarrierWait(bar)
						}
					}
				})
				api.PutU64(t, 0, api.U64(t, medianOff))
			}
		},
	}
}

// canneal: barrier-heavy with scattered writes across a large shared
// array: every thread dirties many pages that other threads also write,
// maximizing page conflicts, byte merges, propagation volume and GC
// pressure — the paper's memory-blowup benchmark (Figures 12, 15, 16).
func canneal() Spec {
	elemsBytes := func(p Params) int { return 512 * 1024 * p.scale() }
	return Spec{
		Name:  "canneal",
		Suite: "parsec",
		Class: ClassBarrier,
		SegmentSize: func(p Params) int {
			return 16*pg + elemsBytes(p)
		},
		Prog: func(p Params) func(api.T) {
			nb := elemsBytes(p)
			arrOff := 16 * pg
			const iters = 10
			const swapsPerIter = 24
			return func(t api.T) {
				fill(t, arrOff, nb, p.Seed)
				bar := t.NewBarrier(p.Threads)
				spawnWorkers(t, p.Threads, func(id int) func(api.T) {
					return func(t api.T) {
						for it := 0; it < iters; it++ {
							rng := rand.New(rand.NewSource(p.Seed ^ int64(id*1_000_003+it)))
							var a, b [16]byte
							for s := 0; s < swapsPerIter; s++ {
								i := rng.Intn(nb/16-1) * 16
								j := rng.Intn(nb/16-1) * 16
								t.Read(a[:], arrOff+i)
								t.Read(b[:], arrOff+j)
								t.Compute(20_000) // routing-cost delta over the nets
								t.Write(b[:], arrOff+i)
								t.Write(a[:], arrOff+j)
							}
							t.BarrierWait(bar)
						}
					}
				})
				api.PutU64(t, 0, api.U64(t, arrOff)^api.U64(t, arrOff+nb-8))
			}
		},
	}
}

// dedup: three-stage pipeline (chunk → dedup → compress) over bounded
// queues, with bucket locks in the dedup stage.
func dedup() Spec {
	const qcap = 24
	const buckets = 8
	return Spec{
		Name:  "dedup",
		Suite: "parsec",
		Class: ClassOther,
		SegmentSize: func(p Params) int {
			return 16*pg + 2*pg + (buckets+2)*pg + (p.Threads+1)*pg
		},
		Prog: func(p Params) func(api.T) {
			items := 48 * p.scale()
			q1Off := 16 * pg
			q2Off := 16*pg + conc.QueueBytes(qcap) + 64
			hashOff := func(b int) int { return 18*pg + b*pg }
			outOff := func(id int) int { return (18 + buckets + 1 + id) * pg }
			return func(t api.T) {
				nChunk := maxInt(1, p.Threads/3)
				nDedup := maxInt(1, p.Threads/3)
				nComp := maxInt(1, p.Threads-nChunk-nDedup)
				q1 := conc.NewQueue(t, q1Off, qcap, nChunk)
				q2 := conc.NewQueue(t, q2Off, qcap, nDedup)
				var lk [buckets]api.Mutex
				for i := range lk {
					lk[i] = t.NewMutex()
				}
				var hs []api.Handle
				// First stage: chunkers.
				for c := 0; c < nChunk; c++ {
					c := c
					hs = append(hs, t.Spawn(func(t api.T) {
						lo, hi := chunkRange(items, nChunk, c)
						for i := lo; i < hi; i++ {
							t.Compute(120_000) // rolling-hash chunking
							q1.Put(t, uint64(i+1))
						}
						q1.ProducerDone(t)
					}))
				}
				// Second stage: dedup (hash-table lookups under bucket locks).
				for d := 0; d < nDedup; d++ {
					hs = append(hs, t.Spawn(func(t api.T) {
						for {
							v, ok := q1.Get(t)
							if !ok {
								break
							}
							t.Compute(220_000) // SHA1 of the chunk
							b := int(v) % buckets
							t.Lock(lk[b])
							seen := api.U64(t, hashOff(b)+8*int(v%128))
							api.PutU64(t, hashOff(b)+8*int(v%128), seen+1)
							t.Unlock(lk[b])
							if seen == 0 {
								q2.Put(t, v)
							}
						}
						q2.ProducerDone(t)
					}))
				}
				// Third stage: compressors.
				for cm := 0; cm < nComp; cm++ {
					cm := cm
					hs = append(hs, t.Spawn(func(t api.T) {
						var n uint64
						for {
							v, ok := q2.Get(t)
							if !ok {
								break
							}
							t.Compute(500_000) // compress the unique chunk
							n += v
						}
						api.PutU64(t, outOff(cm), n)
					}))
				}
				for _, h := range hs {
					t.Join(h)
				}
				var total uint64
				for cm := 0; cm < nComp; cm++ {
					total += api.U64(t, outOff(cm))
				}
				api.PutU64(t, 0, total)
			}
		},
	}
}

// ferret: the paper's hardest pipeline (§5.2). The first spawned thread
// (ferret_1) performs a high rate of short-critical-section queue
// operations; the middle ranks alternate long compute chunks with
// condition-variable waits (ferret_n).
func ferret() Spec {
	const qcap = 32
	return Spec{
		Name:  "ferret",
		Suite: "parsec",
		Class: ClassOther,
		SegmentSize: func(p Params) int {
			return 16*pg + 4*pg
		},
		Prog: func(p Params) func(api.T) {
			items := 64 * p.scale()
			q1Off := 16 * pg
			q2Off := 16*pg + conc.QueueBytes(qcap) + 64
			q3Off := 16*pg + 2*(conc.QueueBytes(qcap)+64)
			rankOff := 17 * pg
			return func(t api.T) {
				nMid := maxInt(1, (p.Threads-2)/2)
				q1 := conc.NewQueue(t, q1Off, qcap, 1)
				q2 := conc.NewQueue(t, q2Off, qcap, nMid)
				q3 := conc.NewQueue(t, q3Off, qcap, nMid)
				rankLock := t.NewMutex()
				var hs []api.Handle
				// First stage (ferret_1): image segmentation — short chunks,
				// very frequent queue ops.
				hs = append(hs, t.Spawn(func(t api.T) {
					for i := 0; i < items; i++ {
						t.Compute(8_000)
						q1.Put(t, uint64(i+1))
					}
					q1.ProducerDone(t)
				}))
				// Second stage: feature extraction — long chunks.
				for w := 0; w < nMid; w++ {
					hs = append(hs, t.Spawn(func(t api.T) {
						for {
							v, ok := q1.Get(t)
							if !ok {
								break
							}
							t.Compute(200_000)
							q2.Put(t, v*3)
						}
						q2.ProducerDone(t)
					}))
				}
				// Third stage: indexing/query — long chunks.
				for w := 0; w < nMid; w++ {
					hs = append(hs, t.Spawn(func(t api.T) {
						for {
							v, ok := q2.Get(t)
							if !ok {
								break
							}
							t.Compute(280_000)
							q3.Put(t, v+7)
						}
						q3.ProducerDone(t)
					}))
				}
				// Fourth stage: rank aggregation under a single lock.
				hs = append(hs, t.Spawn(func(t api.T) {
					for {
						v, ok := q3.Get(t)
						if !ok {
							break
						}
						t.Compute(2_000)
						t.Lock(rankLock)
						api.AddU64(t, rankOff, v)
						t.Unlock(rankLock)
					}
				}))
				for _, h := range hs {
					t.Join(h)
				}
				api.PutU64(t, 0, api.U64(t, rankOff))
			}
		},
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
