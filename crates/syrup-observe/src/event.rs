//! The compact binary event record and its layer/kind taxonomy.

use serde::{Serialize, SerializeStruct, Serializer};

/// Number of instrumented layers; the recorder keeps one ring per layer.
pub const NUM_LAYERS: usize = 7;

/// Which layer of the stack recorded an event. Each layer owns its own
/// ring so a chatty layer (per-packet NIC events) can never evict a rare
/// layer's events (one SLO burn).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `syrupd` dispatch: one event per scheduling verdict.
    Syrupd,
    /// The eBPF VM (both backends): traps and tail-call-cap hits.
    Vm,
    /// NIC RX queues: enqueue drops and depth-threshold crossings.
    Nic,
    /// Reuseport socket buffers: enqueue drops and depth crossings.
    Sock,
    /// Reserved for rank-queue events. No shipped path records here; the
    /// layer stays so every postmortem holds the same seven dumps.
    Sched,
    /// ghOSt: per-thread scheduler-state changes.
    Ghost,
    /// The SLO monitor: burn events.
    Slo,
}

impl Layer {
    /// All layers, stack order (NIC-side first is not meaningful here;
    /// this is the ring order).
    pub const ALL: [Layer; NUM_LAYERS] = [
        Layer::Syrupd,
        Layer::Vm,
        Layer::Nic,
        Layer::Sock,
        Layer::Sched,
        Layer::Ghost,
        Layer::Slo,
    ];

    /// Stable lowercase name used in JSON schemas.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Syrupd => "syrupd",
            Layer::Vm => "vm",
            Layer::Nic => "nic",
            Layer::Sock => "sock",
            Layer::Sched => "sched",
            Layer::Ghost => "ghost",
            Layer::Slo => "slo",
        }
    }

    /// The layer's ring index.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Layer::Syrupd => 0,
            Layer::Vm => 1,
            Layer::Nic => 2,
            Layer::Sock => 3,
            Layer::Sched => 4,
            Layer::Ghost => 5,
            Layer::Slo => 6,
        }
    }
}

/// What happened. The payload words' meaning depends on the kind; see
/// each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A syrupd scheduling verdict. `id` = app, `aux` = hook index
    /// (position in `Hook::ALL` order as passed by syrupd), `w0` = the
    /// raw 64-bit return (`(rank << 32) | executor` for ranked verdicts),
    /// `w1` = cycles charged.
    Dispatch,
    /// A VM trap. `id` = backend (0 interp, 1 fast), `aux` = trap code,
    /// `w0`/`w1` unused.
    VmTrap,
    /// An invocation hit the tail-call cap. `id` = backend, `aux` = tail
    /// calls taken, `w0` = the final return value.
    VmTailCap,
    /// A full queue rejected an enqueue. `id` = queue index, `aux` =
    /// rank of the rejected item, `w0` = queue depth at rejection.
    EnqueueDrop,
    /// Queue depth crossed its threshold upward. `id` = queue index,
    /// `w0` = new depth, `w1` = threshold.
    DepthUp,
    /// Queue depth crossed its threshold downward. Fields as
    /// [`EventKind::DepthUp`].
    DepthDown,
    /// A ghOSt-managed thread changed scheduler state. `aux` = state
    /// (0 runnable, 1 running, 2 blocked), `w0` = thread id.
    ThreadState,
    /// An SLO rule burned. `id` = rule index, `w0` = observed value,
    /// `w1` = threshold.
    SloBurn,
    /// The profiler flagged executor starvation. `w0` = thread id,
    /// `w1` = nanoseconds spent runnable-but-unserved.
    Starvation,
    /// A manual trigger was fired (`syrupctl blackbox trigger`).
    Trigger,
    /// A `scope` anomaly detector flagged a series. `id` = series
    /// index (per-detector registration order), `aux` = |z-score| × 100,
    /// `w0` = observed value, `w1` = baseline (rounded series median).
    Anomaly,
}

impl EventKind {
    /// Stable lowercase name used in JSON schemas.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Dispatch => "dispatch",
            EventKind::VmTrap => "vm-trap",
            EventKind::VmTailCap => "vm-tail-cap",
            EventKind::EnqueueDrop => "enqueue-drop",
            EventKind::DepthUp => "depth-up",
            EventKind::DepthDown => "depth-down",
            EventKind::ThreadState => "thread-state",
            EventKind::SloBurn => "slo-burn",
            EventKind::Starvation => "starvation",
            EventKind::Trigger => "trigger",
            EventKind::Anomaly => "anomaly",
        }
    }

    /// The kind's wire code. Code 7 belonged to a retired queue-band
    /// event and stays unused, so no kind decodes as another.
    fn code(self) -> u16 {
        match self {
            EventKind::Dispatch => 1,
            EventKind::VmTrap => 2,
            EventKind::VmTailCap => 3,
            EventKind::EnqueueDrop => 4,
            EventKind::DepthUp => 5,
            EventKind::DepthDown => 6,
            EventKind::ThreadState => 8,
            EventKind::SloBurn => 9,
            EventKind::Starvation => 10,
            EventKind::Trigger => 11,
            EventKind::Anomaly => 12,
        }
    }

    fn from_code(code: u16) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::Dispatch,
            2 => EventKind::VmTrap,
            3 => EventKind::VmTailCap,
            4 => EventKind::EnqueueDrop,
            5 => EventKind::DepthUp,
            6 => EventKind::DepthDown,
            8 => EventKind::ThreadState,
            9 => EventKind::SloBurn,
            10 => EventKind::Starvation,
            11 => EventKind::Trigger,
            12 => EventKind::Anomaly,
            _ => return None,
        })
    }
}

/// One flight-recorder event: 32 bytes, `Copy`, stored in the ring as
/// four words. The payload fields' meaning is per-[`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time of the event, nanoseconds.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific small id (queue index, app id, rule index, …).
    pub id: u16,
    /// Kind-specific 32-bit payload (rank, trap code, band, state, …).
    pub aux: u32,
    /// First kind-specific payload word.
    pub w0: u64,
    /// Second kind-specific payload word.
    pub w1: u64,
}

impl Event {
    /// Packs the event into the four ring words.
    #[inline]
    pub(crate) fn encode(self) -> [u64; 4] {
        let meta =
            (u64::from(self.kind.code()) << 48) | (u64::from(self.id) << 32) | u64::from(self.aux);
        [self.at_ns, meta, self.w0, self.w1]
    }

    /// Unpacks four ring words; `None` for an unknown kind code (a slot
    /// that was never written decodes as code 0).
    pub(crate) fn decode(words: [u64; 4]) -> Option<Event> {
        let kind = EventKind::from_code((words[1] >> 48) as u16)?;
        Some(Event {
            at_ns: words[0],
            kind,
            id: (words[1] >> 32) as u16,
            aux: words[1] as u32,
            w0: words[2],
            w1: words[3],
        })
    }
}

impl Serialize for Event {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Event", 6)?;
        s.serialize_field("at_ns", &self.at_ns)?;
        s.serialize_field("kind", &self.kind.as_str())?;
        s.serialize_field("id", &u64::from(self.id))?;
        s.serialize_field("aux", &u64::from(self.aux))?;
        s.serialize_field("w0", &self.w0)?;
        s.serialize_field("w1", &self.w1)?;
        s.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_have_distinct_indices_and_names() {
        let mut seen = std::collections::BTreeSet::new();
        for layer in Layer::ALL {
            assert!(seen.insert(layer.index()), "{layer:?}");
            assert!(layer.index() < NUM_LAYERS);
            assert!(!layer.as_str().is_empty());
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let e = Event {
            at_ns: 123_456_789,
            kind: EventKind::Dispatch,
            id: 7,
            aux: 0xDEAD_BEEF,
            w0: u64::MAX,
            w1: 42,
        };
        assert_eq!(Event::decode(e.encode()), Some(e));
        // An all-zero (never-written) slot decodes as no event.
        assert_eq!(Event::decode([0; 4]), None);
    }

    #[test]
    fn events_serialize_with_kind_names() {
        let e = Event {
            at_ns: 5,
            kind: EventKind::SloBurn,
            id: 1,
            aux: 0,
            w0: 900,
            w1: 100,
        };
        let json = serde::json::to_string(&e).unwrap();
        assert!(json.contains("\"kind\":\"slo-burn\""), "{json}");
        assert!(json.contains("\"w0\":900"), "{json}");
    }
}
