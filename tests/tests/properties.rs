//! Property-based tests over the core substrates.

use proptest::prelude::*;

use syrup::core::Decision;
use syrup::ebpf::cycles::CycleModel;
use syrup::ebpf::maps::{MapDef, MapRegistry, UpdateFlag};
use syrup::ebpf::vm::{Backend, PacketCtx, RunEnv, Vm};
use syrup::ebpf::{verify, Asm, Reg};
use syrup::net::{FiveTuple, Toeplitz};
use syrup::sched::{BucketQueue, Pifo};
use syrup::sim::stats::LatencySummary;
use syrup::sim::{EventQueue, Time};
use syrup::telemetry::nearest_rank;

proptest! {
    /// Decisions survive the wire encoding for every u32.
    #[test]
    fn decision_round_trip(v in any::<u32>()) {
        let d = Decision::from_ret(u64::from(v));
        prop_assert_eq!(Decision::from_ret(d.to_ret()), d);
    }

    /// Nearest-rank percentiles agree with a naive reference: the first
    /// sample with at least p·N samples at or below it. Out-of-range and
    /// infinite `p` clamp to an end, NaN picks the first sample, and no
    /// samples give zero.
    #[test]
    fn percentiles_match_reference(mut samples in prop::collection::vec(0u64..1_000_000, 0..200),
                                   p in (0u8..8, -0.5f64..1.5).prop_map(|(edge, p)| match edge {
                                       0 => f64::NAN,
                                       1 => f64::INFINITY,
                                       2 => f64::NEG_INFINITY,
                                       _ => p,
                                   })) {
        let summary = LatencySummary::from_nanos(samples.clone());
        samples.sort_unstable();
        let q = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let n = samples.len() as f64;
        let want = samples
            .iter()
            .enumerate()
            .find(|&(i, _)| (i + 1) as f64 >= q * n)
            .map_or(0, |(_, &v)| v);
        prop_assert_eq!(nearest_rank(&samples, p), want);
        prop_assert_eq!(summary.percentile(p).as_nanos(), want);
    }

    /// The event queue pops every event in nondecreasing time order and
    /// FIFO within ties, regardless of push order.
    #[test]
    fn event_queue_is_totally_ordered(times in prop::collection::vec(0u64..1_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_nanos(t), i);
        }
        let mut last_time = 0u64;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut popped = 0usize;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t.as_nanos() >= last_time);
            if t.as_nanos() != last_time {
                seen_at_time.clear();
                last_time = t.as_nanos();
            }
            // FIFO within a tie: indices increase.
            if let Some(&prev) = seen_at_time.last() {
                prop_assert!(idx > prev);
            }
            seen_at_time.push(idx);
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Hash maps behave like a model `HashMap` under arbitrary operation
    /// sequences (insert/update/delete/lookup).
    #[test]
    fn hash_map_matches_model(ops in prop::collection::vec((0u8..4, 0u32..16, any::<u64>()), 1..200)) {
        let reg = MapRegistry::new();
        let map = reg.get(reg.create(MapDef::u64_hash(64))).unwrap();
        let mut model = std::collections::HashMap::new();
        for (op, key, value) in ops {
            match op {
                0 => {
                    let _ = map.update_u64(key, value);
                    model.insert(key, value);
                }
                1 => {
                    let real = map.lookup_u64(key).unwrap();
                    prop_assert_eq!(real, model.get(&key).copied());
                }
                2 => {
                    let real = map.delete(&key.to_le_bytes());
                    let modeled = model.remove(&key);
                    prop_assert_eq!(real.is_ok(), modeled.is_some());
                }
                _ => {
                    let flag_res = map.update(
                        &key.to_le_bytes(),
                        &value.to_le_bytes(),
                        UpdateFlag::NoExist,
                    );
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(key) {
                        prop_assert!(flag_res.is_ok());
                        e.insert(value);
                    } else {
                        prop_assert!(flag_res.is_err());
                    }
                }
            }
        }
        prop_assert_eq!(map.len(), model.len());
    }

    /// Toeplitz hashing matches an independent bit-by-bit reference.
    #[test]
    fn toeplitz_matches_reference(src in any::<u32>(), dst in any::<u32>(),
                                  sport in any::<u16>(), dport in any::<u16>()) {
        let flow = FiveTuple { src_ip: src, dst_ip: dst, src_port: sport, dst_port: dport };
        let fast = Toeplitz::default().hash_v4(&flow);

        // Reference: key as a big bit vector, XOR 32-bit windows.
        let key = syrup::net::rss::DEFAULT_KEY;
        let key_bit = |i: usize| -> u32 {
            if i / 8 < key.len() { u32::from((key[i / 8] >> (7 - i % 8)) & 1) } else { 0 }
        };
        let mut input = Vec::new();
        input.extend_from_slice(&src.to_be_bytes());
        input.extend_from_slice(&dst.to_be_bytes());
        input.extend_from_slice(&sport.to_be_bytes());
        input.extend_from_slice(&dport.to_be_bytes());
        let mut expect = 0u32;
        for (bit_idx, _) in input.iter().flat_map(|b| (0..8).map(move |k| (b >> (7 - k)) & 1))
            .enumerate()
            .filter(|(_, bit)| *bit == 1)
            .map(|(i, _)| (i, ()))
        {
            let mut window = 0u32;
            for j in 0..32 {
                window = (window << 1) | key_bit(bit_idx + j);
            }
            expect ^= window;
        }
        prop_assert_eq!(fast, expect);
    }

    /// Verifier soundness: any program the verifier accepts runs without
    /// trapping, over arbitrary packet contents and sizes. Programs are
    /// generated from a grammar biased toward plausible (sometimes valid)
    /// shapes; most get rejected, accepted ones must be safe.
    #[test]
    fn verified_programs_never_trap(
        seed_insns in prop::collection::vec((0u8..8, 0u8..5, -64i32..64), 1..12),
        pkt_len in 0usize..64,
        pkt_byte in any::<u8>(),
    ) {
        let mut asm = Asm::new();
        // Prologue candidates the generator can exploit.
        asm = asm
            .ldx_dw(Reg::R7, Reg::R1, 8)  // data_end
            .ldx_dw(Reg::R6, Reg::R1, 0); // data
        for (op, reg, imm) in seed_insns {
            let r = Reg::new(reg % 5); // r0..r4
            asm = match op {
                0 => asm.mov64_imm(r, imm),
                1 => asm.add64_imm(r, imm),
                2 => asm.mod64_imm(r, imm.max(1)),
                3 => asm.mov64_reg(r, Reg::R6),
                4 => asm.add64_reg(r, r),
                5 => asm.jgt_reg(Reg::R6, Reg::R7, "out"),
                6 => asm.ldx_b(r, Reg::R6, (imm & 31) as i16),
                _ => asm.stx_dw(Reg::R10, -8 - (i16::from((imm & 7) as i8) * 8).abs(), r),
            };
        }
        let prog = asm
            .label("out")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("fuzz");
        let Ok(prog) = prog else { return Ok(()); };

        let maps = MapRegistry::new();
        if verify(&prog, &maps).is_ok() {
            let mut vm = Vm::new(maps);
            let slot = vm.load_unverified(prog);
            let mut pkt = vec![pkt_byte; pkt_len];
            let mut ctx = PacketCtx::new(&mut pkt);
            let result = vm.run(slot, &mut ctx, &mut RunEnv::default());
            prop_assert!(result.is_ok(), "verified program trapped: {:?}", result);
        }
    }

    /// Pre-decoding for the fast backend is lossless: re-encoding the
    /// decoded stream reproduces the original instructions exactly, for
    /// every program the grammar can build (accepted or not).
    #[test]
    fn decode_reencode_round_trips(
        seed_insns in prop::collection::vec((0u8..8, 0u8..5, -64i32..64), 1..12),
    ) {
        let mut asm = Asm::new();
        asm = asm
            .ldx_dw(Reg::R7, Reg::R1, 8)
            .ldx_dw(Reg::R6, Reg::R1, 0);
        for (op, reg, imm) in seed_insns {
            let r = Reg::new(reg % 5);
            asm = match op {
                0 => asm.mov64_imm(r, imm),
                1 => asm.add64_imm(r, imm),
                2 => asm.mod64_imm(r, imm.max(1)),
                3 => asm.mov64_reg(r, Reg::R6),
                4 => asm.add64_reg(r, r),
                5 => asm.jgt_reg(Reg::R6, Reg::R7, "out"),
                6 => asm.ldx_b(r, Reg::R6, (imm & 31) as i16),
                _ => asm.stx_dw(Reg::R10, -8 - (i16::from((imm & 7) as i8) * 8).abs(), r),
            };
        }
        let prog = asm
            .label("out")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("roundtrip");
        let Ok(prog) = prog else { return Ok(()); };

        let decoded = syrup::ebpf::decode(&prog, &CycleModel::default());
        prop_assert_eq!(decoded.reencode(), prog.insns);
    }

    /// The two execution backends are observably identical on everything
    /// the grammar can build: same full outcome (return value, instruction
    /// count, modelled cycle total, redirects, tail calls), same trap for
    /// programs that trap, same packet bytes afterwards. In particular,
    /// fast-backend cycle totals equal interpreter cycle totals for every
    /// trap-free program.
    #[test]
    fn backends_agree_on_generated_programs(
        seed_insns in prop::collection::vec((0u8..8, 0u8..5, -64i32..64), 1..12),
        pkt_len in 0usize..64,
        pkt_byte in any::<u8>(),
    ) {
        let mut asm = Asm::new();
        asm = asm
            .ldx_dw(Reg::R7, Reg::R1, 8)
            .ldx_dw(Reg::R6, Reg::R1, 0);
        for (op, reg, imm) in seed_insns {
            let r = Reg::new(reg % 5);
            asm = match op {
                0 => asm.mov64_imm(r, imm),
                1 => asm.add64_imm(r, imm),
                2 => asm.mod64_imm(r, imm.max(1)),
                3 => asm.mov64_reg(r, Reg::R6),
                4 => asm.add64_reg(r, r),
                5 => asm.jgt_reg(Reg::R6, Reg::R7, "out"),
                6 => asm.ldx_b(r, Reg::R6, (imm & 31) as i16),
                _ => asm.stx_dw(Reg::R10, -8 - (i16::from((imm & 7) as i8) * 8).abs(), r),
            };
        }
        let prog = asm
            .label("out")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build("diff");
        let Ok(prog) = prog else { return Ok(()); };

        let mut interp = Vm::new(MapRegistry::new());
        let mut fast = Vm::new(MapRegistry::new());
        fast.set_backend(Backend::Fast);
        let islot = interp.load_unverified(prog.clone());
        let fslot = fast.load_unverified(prog);

        let mut pkt_i = vec![pkt_byte; pkt_len];
        let mut pkt_f = pkt_i.clone();
        let out_i = {
            let mut ctx = PacketCtx::new(&mut pkt_i);
            interp.run(islot, &mut ctx, &mut RunEnv::default())
        };
        let out_f = {
            let mut ctx = PacketCtx::new(&mut pkt_f);
            fast.run(fslot, &mut ctx, &mut RunEnv::default())
        };
        prop_assert_eq!(out_i, out_f);
        prop_assert_eq!(pkt_i, pkt_f);
    }
}

proptest! {
    /// The exact PIFO agrees with a stable sort-by-rank reference under
    /// arbitrary interleavings of pushes and pops: non-decreasing rank
    /// out, FIFO within equal ranks.
    #[test]
    fn pifo_matches_stable_sort_reference(
        ops in prop::collection::vec((0u8..3, 0u32..50), 1..300),
    ) {
        let mut pifo: Pifo<usize> = Pifo::unbounded();
        let mut model: Vec<(u32, usize)> = Vec::new();
        let mut next = 0usize;
        for (op, rank) in ops {
            if op < 2 || model.is_empty() {
                pifo.push(next, rank);
                model.push((rank, next));
                next += 1;
            } else {
                let at = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, (r, _))| (*r, *i))
                    .map(|(i, _)| i)
                    .unwrap();
                let (want_rank, want_item) = model.remove(at);
                prop_assert_eq!(pifo.pop_entry(), Some((want_item, want_rank)));
            }
        }
        // Drain: item ids increase with push order, so a stable order is
        // exactly the sort by (rank, id).
        model.sort_unstable_by_key(|&(r, id)| (r, id));
        for (want_rank, want_item) in model {
            prop_assert_eq!(pifo.pop_entry(), Some((want_item, want_rank)));
        }
        prop_assert!(pifo.is_empty());
    }

    /// Eiffel's documented approximation bound against the exact PIFO:
    /// while every queued rank stays inside the horizon, each bucket-queue
    /// dequeue is within one bucket width of the true minimum (the rank
    /// the PIFO pops at the same step).
    #[test]
    fn bucket_queue_inversion_stays_below_granularity(
        ranks in prop::collection::vec(0u32..256, 1..200),
        granularity in 1u32..16,
        pops_interleaved in any::<bool>(),
    ) {
        // Horizon covers the whole rank domain, so nothing ever clamps.
        let num_buckets = 256usize.div_ceil(granularity as usize) + 1;
        let mut bucket: BucketQueue<usize> = BucketQueue::unbounded(num_buckets, granularity);
        let mut pifo: Pifo<usize> = Pifo::unbounded();
        let check = |bucket: &mut BucketQueue<usize>, pifo: &mut Pifo<usize>| {
            let (_, exact_min) = pifo.pop_entry().unwrap();
            let (_, got) = bucket.pop_entry().unwrap();
            // Strict form of "rank(a) + g <= rank(b) => a first".
            got < exact_min + granularity
        };
        for (i, &rank) in ranks.iter().enumerate() {
            bucket.push(i, rank);
            pifo.push(i, rank);
            if pops_interleaved && i % 3 == 2 {
                prop_assert!(check(&mut bucket, &mut pifo));
            }
        }
        while !pifo.is_empty() {
            prop_assert!(check(&mut bucket, &mut pifo));
        }
        prop_assert!(bucket.is_empty());
    }
}
