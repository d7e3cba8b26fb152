//! The per-packet cost model of the RX path.
//!
//! The discrete-event worlds charge these costs as latency: time in the
//! kernel before the datagram is visible to the application. The
//! absolute values approximate a 2–2.3GHz Xeon running Linux 5.9 — the
//! paper's set A/B machines.

use syrup_sim::Duration;

/// Where time goes between the wire and the application, per packet.
#[derive(Debug, Clone, Copy)]
pub struct StackCosts {
    /// Interrupt delivery + driver RX descriptor processing.
    pub irq_and_driver: Duration,
    /// SKB allocation.
    pub skb_alloc: Duration,
    /// IP + UDP protocol processing.
    pub protocol: Duration,
    /// Socket buffer enqueue plus thread wakeup.
    pub socket_deliver: Duration,
}

impl Default for StackCosts {
    fn default() -> Self {
        StackCosts {
            irq_and_driver: Duration::from_nanos(900),
            skb_alloc: Duration::from_nanos(500),
            protocol: Duration::from_nanos(1_600),
            socket_deliver: Duration::from_nanos(1_000),
        }
    }
}

impl StackCosts {
    /// Wire → socket latency on the standard UDP receive path.
    pub fn standard_rx_latency(&self) -> Duration {
        self.irq_and_driver + self.skb_alloc + self.protocol + self.socket_deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_are_microsecond_scale() {
        let c = StackCosts::default();
        let std = c.standard_rx_latency().as_micros_f64();
        assert!((2.0..10.0).contains(&std), "standard path {std}us");
    }
}
