//! Native Rust implementations of the paper's policies.
//!
//! These are decision-for-decision equivalents of the C policies in
//! [`crate::c_sources`], used on the simulation hot path. Datagram layout
//! (see `syrup_net::packet`): UDP header (8 bytes), then `req_type: u64`,
//! `user_id: u32`, `key_hash: u64`.

use syrup_core::{Decision, HookMeta, PacketPolicy};
use syrup_ebpf::maps::MapRef;

use crate::class_codes;

fn read_u64(pkt: &[u8], off: usize) -> Option<u64> {
    pkt.get(off..off + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
}

fn read_u32(pkt: &[u8], off: usize) -> Option<u32> {
    pkt.get(off..off + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
}

/// The baseline: no Syrup policy; everything PASSes to the default
/// hash-based steering ("Vanilla Linux" in the figures).
#[derive(Debug, Default, Clone)]
pub struct VanillaPolicy;

impl PacketPolicy for VanillaPolicy {
    fn schedule(&mut self, _pkt: &mut [u8], _meta: &HookMeta) -> Decision {
        Decision::Pass
    }
    fn name(&self) -> &str {
        "vanilla"
    }
}

/// Figure 5a: round robin over `n` sockets.
///
/// The paper notes the unsynchronized `idx++` produces benign races in the
/// kernel; the simulation is single-threaded per hook, so the counter here
/// is exact.
#[derive(Debug, Clone)]
pub struct RoundRobinPolicy {
    idx: u64,
    n: u32,
}

impl RoundRobinPolicy {
    /// `n` executors.
    pub fn new(n: u32) -> Self {
        assert!(n > 0);
        RoundRobinPolicy { idx: 0, n }
    }
}

impl PacketPolicy for RoundRobinPolicy {
    fn schedule(&mut self, _pkt: &mut [u8], _meta: &HookMeta) -> Decision {
        self.idx = self.idx.wrapping_add(1);
        Decision::Executor((self.idx % u64::from(self.n)) as u32)
    }
    fn name(&self) -> &str {
        "round_robin"
    }
}

/// Figure 5c: SCAN Avoid. Probes up to `n` random sockets, skipping ones
/// whose thread is currently serving a SCAN (per the shared `scan_map`
/// that the application updates — Figure 5b's userspace half).
#[derive(Debug)]
pub struct ScanAvoidPolicy {
    scan_map: MapRef,
    n: u32,
    // xorshift64* state, mirroring the VM's `get_prandom_u32`.
    rng: u64,
}

impl ScanAvoidPolicy {
    /// `scan_map[i]` holds the class the socket-`i` thread is serving.
    pub fn new(scan_map: MapRef, n: u32, seed: u64) -> Self {
        assert!(n > 0);
        ScanAvoidPolicy {
            scan_map,
            n,
            rng: if seed == 0 { 0x9E37_79B9 } else { seed },
        }
    }

    fn prandom(&mut self) -> u32 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
    }
}

impl PacketPolicy for ScanAvoidPolicy {
    fn schedule(&mut self, _pkt: &mut [u8], _meta: &HookMeta) -> Decision {
        let mut cur_idx = 0u32;
        for _ in 0..self.n {
            cur_idx = self.prandom() % self.n;
            let Ok(Some(scan)) = self.scan_map.lookup_u64(cur_idx) else {
                return Decision::Pass;
            };
            // Stop searching when a non-SCAN socket is found.
            if scan != class_codes::SCAN {
                break;
            }
        }
        Decision::Executor(cur_idx)
    }
    fn name(&self) -> &str {
        "scan_avoid"
    }
}

/// Figure 5d: SITA — SCANs to socket 0, GETs round-robin over `1..n`.
#[derive(Debug, Clone)]
pub struct SitaPolicy {
    idx: u64,
    n: u32,
}

impl SitaPolicy {
    /// `n` total sockets (socket 0 is reserved for SCANs).
    pub fn new(n: u32) -> Self {
        assert!(n >= 2, "SITA needs a SCAN socket plus GET sockets");
        SitaPolicy { idx: 0, n }
    }
}

impl PacketPolicy for SitaPolicy {
    fn schedule(&mut self, pkt: &mut [u8], _meta: &HookMeta) -> Decision {
        if pkt.len() < 16 {
            return Decision::Pass;
        }
        // First 8 bytes are UDP header.
        let ty = read_u64(pkt, 8).expect("length checked");
        if ty == class_codes::SCAN {
            return Decision::Executor(0);
        }
        self.idx = self.idx.wrapping_add(1);
        Decision::Executor(((self.idx % u64::from(self.n - 1)) + 1) as u32)
    }
    fn name(&self) -> &str {
        "sita"
    }
}

/// §3.4 / §5.2.2: token-based QoS. Requests consume their user's tokens;
/// out-of-token users are dropped; admitted requests round-robin.
#[derive(Debug)]
pub struct TokenPolicy {
    token_map: MapRef,
    idx: u64,
    n: u32,
}

impl TokenPolicy {
    /// `token_map[user]` holds the user's remaining tokens; the userspace
    /// agent refills it each epoch.
    pub fn new(token_map: MapRef, n: u32) -> Self {
        assert!(n > 0);
        TokenPolicy {
            token_map,
            idx: 0,
            n,
        }
    }
}

impl PacketPolicy for TokenPolicy {
    fn schedule(&mut self, pkt: &mut [u8], _meta: &HookMeta) -> Decision {
        if pkt.len() < 20 {
            return Decision::Drop;
        }
        let user = read_u32(pkt, 16).expect("length checked");
        let Ok(Some(slot)) = self.token_map.slot_for_key(&user.to_le_bytes()) else {
            return Decision::Drop;
        };
        let Ok(tokens) = self.token_map.read_value(slot, 0, 8) else {
            return Decision::Drop;
        };
        if tokens == 0 {
            return Decision::Drop;
        }
        let _ = self.token_map.fetch_add_value(slot, 0, 8, (-1i64) as u64);
        self.idx = self.idx.wrapping_add(1);
        Decision::Executor((self.idx % u64::from(self.n)) as u32)
    }
    fn name(&self) -> &str {
        "token_based"
    }
}

/// §5.4: MICA home-core steering — `key_hash % n`, the §3.3 hash example
/// applied to AF_XDP sockets (Syrup SW) or NIC RX queues (Syrup HW).
#[derive(Debug, Clone)]
pub struct MicaHomePolicy {
    n: u32,
}

impl MicaHomePolicy {
    /// `n` partitions / executors.
    pub fn new(n: u32) -> Self {
        assert!(n > 0);
        MicaHomePolicy { n }
    }
}

impl PacketPolicy for MicaHomePolicy {
    fn schedule(&mut self, pkt: &mut [u8], _meta: &HookMeta) -> Decision {
        if pkt.len() < 28 {
            return Decision::Pass;
        }
        let hash = read_u64(pkt, 20).expect("length checked");
        Decision::Executor((hash % u64::from(self.n)) as u32)
    }
    fn name(&self) -> &str {
        "mica_home"
    }
}

/// §2.1's Receive Flow Steering, as a Syrup policy: the flow id
/// rides in the datagram's first four bytes, and `flow_core[flow]` names
/// the core its consumer runs on. A datagram too short to carry a flow id,
/// or a flow past the map, PASSes to default steering.
#[derive(Debug)]
pub struct RfsPolicy {
    flow_core: MapRef,
}

impl RfsPolicy {
    /// `flow_core[flow]` holds the flow's consumer core; the application
    /// keeps it current.
    pub fn new(flow_core: MapRef) -> Self {
        RfsPolicy { flow_core }
    }
}

impl PacketPolicy for RfsPolicy {
    fn schedule(&mut self, pkt: &mut [u8], _meta: &HookMeta) -> Decision {
        let Some(flow) = read_u32(pkt, 0) else {
            return Decision::Pass;
        };
        match self.flow_core.lookup_u64(flow) {
            Ok(Some(core)) => Decision::from_ret(core),
            _ => Decision::Pass,
        }
    }
    fn name(&self) -> &str {
        "rfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrup_ebpf::maps::{MapDef, MapRegistry};
    use syrup_net::{AppHeader, Frame, RequestClass};

    fn dg(class: RequestClass, user: u32, key_hash: u64) -> Vec<u8> {
        let flow = syrup_net::FiveTuple {
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
        };
        Frame::build(
            &flow,
            &AppHeader {
                req_type: class.code(),
                user_id: user,
                key_hash,
                req_id: 0,
            },
        )
        .datagram()
        .to_vec()
    }

    fn meta() -> HookMeta {
        HookMeta::default()
    }

    #[test]
    fn vanilla_always_passes() {
        let mut p = VanillaPolicy;
        assert_eq!(p.schedule(&mut [], &meta()), Decision::Pass);
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobinPolicy::new(3);
        let picks: Vec<_> = (0..6).map(|_| p.schedule(&mut [], &meta())).collect();
        assert_eq!(picks, [1, 2, 0, 1, 2, 0].map(Decision::Executor).to_vec());
    }

    #[test]
    fn sita_splits_by_class() {
        let mut p = SitaPolicy::new(6);
        let mut scan = dg(RequestClass::Scan, 0, 0);
        assert_eq!(p.schedule(&mut scan, &meta()), Decision::Executor(0));
        for _ in 0..10 {
            let mut get = dg(RequestClass::Get, 0, 0);
            match p.schedule(&mut get, &meta()) {
                Decision::Executor(i) => assert!((1..6).contains(&i)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(p.schedule(&mut [0u8; 4], &meta()), Decision::Pass);
    }

    #[test]
    fn scan_avoid_skips_scanning_sockets() {
        let reg = MapRegistry::new();
        let scan_map = reg.get(reg.create(MapDef::u64_array(8))).unwrap();
        for i in 0..6 {
            scan_map
                .update_u64(
                    i,
                    if i == 2 {
                        class_codes::SCAN
                    } else {
                        class_codes::GET
                    },
                )
                .unwrap();
        }
        let mut p = ScanAvoidPolicy::new(scan_map, 6, 99);
        for _ in 0..100 {
            match p.schedule(&mut [], &meta()) {
                Decision::Executor(i) => assert_ne!(i, 2),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn scan_avoid_gives_up_after_n_probes() {
        // All sockets serving SCANs: the policy still returns an executor
        // (the last probed one), avoiding scheduler-side queueing.
        let reg = MapRegistry::new();
        let scan_map = reg.get(reg.create(MapDef::u64_array(8))).unwrap();
        for i in 0..4 {
            scan_map.update_u64(i, class_codes::SCAN).unwrap();
        }
        let mut p = ScanAvoidPolicy::new(scan_map, 4, 1);
        assert!(matches!(p.schedule(&mut [], &meta()), Decision::Executor(i) if i < 4));
    }

    #[test]
    fn scan_avoid_passes_on_map_miss() {
        let reg = MapRegistry::new();
        // Hash map with no entries: every lookup misses.
        let scan_map = reg.get(reg.create(MapDef::u64_hash(8))).unwrap();
        let mut p = ScanAvoidPolicy::new(scan_map, 4, 1);
        assert_eq!(p.schedule(&mut [], &meta()), Decision::Pass);
    }

    #[test]
    fn token_policy_admits_and_drops() {
        let reg = MapRegistry::new();
        let token_map = reg.get(reg.create(MapDef::u64_array(4))).unwrap();
        token_map.update_u64(1, 2).unwrap();
        let mut p = TokenPolicy::new(token_map.clone(), 6);
        let mut ls = dg(RequestClass::Get, 1, 0);
        assert!(matches!(
            p.schedule(&mut ls, &meta()),
            Decision::Executor(_)
        ));
        assert!(matches!(
            p.schedule(&mut ls, &meta()),
            Decision::Executor(_)
        ));
        assert_eq!(p.schedule(&mut ls, &meta()), Decision::Drop);
        assert_eq!(token_map.lookup_u64(1).unwrap(), Some(0));
        // User with no bucket entry (out of range) drops.
        let mut other = dg(RequestClass::Get, 99, 0);
        assert_eq!(p.schedule(&mut other, &meta()), Decision::Drop);
        // Short packet drops.
        assert_eq!(p.schedule(&mut [0u8; 4], &meta()), Decision::Drop);
    }

    #[test]
    fn mica_home_uses_key_hash() {
        let mut p = MicaHomePolicy::new(8);
        for hash in [0u64, 7, 8, 12345] {
            let mut pkt = dg(RequestClass::Get, 0, hash);
            assert_eq!(
                p.schedule(&mut pkt, &meta()),
                Decision::Executor((hash % 8) as u32)
            );
        }
        assert_eq!(p.schedule(&mut [0u8; 8], &meta()), Decision::Pass);
    }
}
