//! The RocksDB-like request server model.
//!
//! §5.1.2: "GETs are very short, having a service time of 10–12µs, while
//! SCANs last for much longer, around 700µs." The model is exactly that —
//! a per-class service-time generator — because the experiments exercise
//! scheduling, not storage: the paper's RocksDB instance serves from
//! memory and its only relevant property is the service-time distribution.

use syrup_net::RequestClass;
use syrup_sim::{Duration, ServiceDist, SimRng};

/// Service-time model for the RocksDB-like server.
#[derive(Debug, Clone, Copy)]
pub struct RocksDbModel {
    /// GET service time (default: uniform 10–12µs).
    pub get: ServiceDist,
    /// SCAN service time (default: uniform 680–720µs, centred on the
    /// paper's "around 700µs").
    pub scan: ServiceDist,
}

impl Default for RocksDbModel {
    fn default() -> Self {
        RocksDbModel {
            get: ServiceDist::Uniform(Duration::from_micros(10), Duration::from_micros(12)),
            scan: ServiceDist::Uniform(Duration::from_micros(680), Duration::from_micros(720)),
        }
    }
}

impl RocksDbModel {
    /// Samples a service time for `class` (PUTs behave like GETs here; the
    /// MICA model has its own costs).
    pub fn sample(&self, class: RequestClass, rng: &mut SimRng) -> Duration {
        match class {
            RequestClass::Get | RequestClass::Put => self.get.sample(rng),
            RequestClass::Scan => self.scan.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_times_match_the_paper() {
        let model = RocksDbModel::default();
        let mut rng = SimRng::new(3);
        for _ in 0..1_000 {
            let g = model.sample(RequestClass::Get, &mut rng).as_micros_f64();
            assert!((10.0..=12.0).contains(&g), "GET {g}us");
            let s = model.sample(RequestClass::Scan, &mut rng).as_micros_f64();
            assert!((680.0..=720.0).contains(&s), "SCAN {s}us");
        }
    }
}
