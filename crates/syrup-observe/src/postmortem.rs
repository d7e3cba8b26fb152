//! The postmortem core: the frozen per-layer event dump.
//!
//! [`Postmortem`] is what the recorder itself can produce — the trigger
//! plus every layer's retained event window and drop accounting, with a
//! stable JSON schema. The full `postmortem.json` *bundle* (snapshot
//! delta, overlapping trace timelines, flamegraph) is assembled by
//! `syrupctl blackbox`, which has the other observability pillars in
//! hand; this module deliberately depends only on `telemetry`.

use serde::{Serialize, SerializeStruct, Serializer};

use crate::event::{Event, EventKind, Layer};
use crate::recorder::TriggerInfo;

/// One layer's retained event window.
#[derive(Debug, Clone)]
pub struct LayerDump {
    /// Which layer.
    pub layer: Layer,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to overwriting (exact).
    pub dropped: u64,
    /// Slots skipped because a writer was mid-flight (0 when frozen).
    pub torn: u64,
}

impl Serialize for LayerDump {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("LayerDump", 4)?;
        s.serialize_field("layer", &self.layer.as_str())?;
        s.serialize_field("dropped", &self.dropped)?;
        s.serialize_field("torn", &self.torn)?;
        s.serialize_field("events", &self.events)?;
        s.end()
    }
}

/// The captured flight-recorder state: trigger info plus every layer's
/// event window.
#[derive(Debug, Clone, Default)]
pub struct Postmortem {
    /// The trigger that froze the rings (`None` for a live capture).
    pub trigger: Option<TriggerInfo>,
    /// Per-layer dumps, [`Layer::ALL`] order. Empty for a disabled
    /// recorder.
    pub layers: Vec<LayerDump>,
}

impl Postmortem {
    /// Names of layers that recorded at least one event.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers
            .iter()
            .filter(|d| !d.events.is_empty())
            .map(|d| d.layer.as_str())
            .collect()
    }

    /// Total retained events across layers.
    pub fn total_events(&self) -> usize {
        self.layers.iter().map(|d| d.events.len()).sum()
    }

    /// Total events lost to overwriting across layers.
    pub fn total_dropped(&self) -> u64 {
        self.layers.iter().map(|d| d.dropped).sum()
    }

    /// The `[earliest, latest]` event timestamps, if any event exists.
    pub fn window(&self) -> Option<(u64, u64)> {
        let mut window: Option<(u64, u64)> = None;
        for e in self.layers.iter().flat_map(|d| &d.events) {
            window = Some(match window {
                None => (e.at_ns, e.at_ns),
                Some((lo, hi)) => (lo.min(e.at_ns), hi.max(e.at_ns)),
            });
        }
        window
    }

    /// The implicated hot path: the app carried by the most recent
    /// dispatch verdict before the trigger, used by `syrupctl blackbox`
    /// to scope the bundled flamegraph.
    pub fn implicated_app(&self) -> Option<u16> {
        self.layers
            .iter()
            .flat_map(|d| &d.events)
            .filter(|e| e.kind == EventKind::Dispatch)
            .max_by_key(|e| e.at_ns)
            .map(|e| e.id)
    }
}

impl Serialize for Postmortem {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Postmortem", 5)?;
        s.serialize_field("trigger", &self.trigger)?;
        s.serialize_field("layer_names", &self.layer_names())?;
        s.serialize_field("total_events", &(self.total_events() as u64))?;
        s.serialize_field("total_dropped", &self.total_dropped())?;
        s.serialize_field("layers", &self.layers)?;
        s.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, TriggerCause};

    fn sample() -> Postmortem {
        let rec = Recorder::new();
        rec.dispatch(10, 3, 4, (9u64 << 32) | 1, 1500);
        rec.dispatch(20, 3, 4, 2, 1400);
        rec.set_now(25);
        rec.enqueue_drop(Layer::Sock, 1, 9, 64);
        rec.slo_burn(30, 0, 900, 100, "vm/run_cycles p99 > 100");
        rec.capture()
    }

    #[test]
    fn summary_accessors_agree_with_the_dump() {
        let pm = sample();
        assert_eq!(pm.layer_names(), vec!["syrupd", "sock", "slo"]);
        assert_eq!(pm.total_events(), 4);
        assert_eq!(pm.total_dropped(), 0);
        assert_eq!(pm.window(), Some((10, 30)));
        // Latest dispatch names the implicated app.
        assert_eq!(pm.implicated_app(), Some(3));
        assert_eq!(pm.trigger.as_ref().unwrap().cause, TriggerCause::SloBurn);
    }

    #[test]
    fn postmortem_serializes_and_round_trips_through_the_parser() {
        let pm = sample();
        let json = serde::json::to_string(&pm).unwrap();
        let value = serde::json::from_str(&json).expect("postmortem parses");
        assert_eq!(
            value
                .get("trigger")
                .and_then(|t| t.get("cause"))
                .and_then(|c| c.as_str()),
            Some("slo-burn")
        );
        let names = value.get("layer_names").and_then(|v| v.as_array()).unwrap();
        assert_eq!(names.len(), 3);
        let layers = value.get("layers").and_then(|v| v.as_array()).unwrap();
        assert_eq!(layers.len(), crate::event::NUM_LAYERS);
        let syrupd = &layers[0];
        let events = syrupd.get("events").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("kind").and_then(|v| v.as_str()),
            Some("dispatch")
        );
    }

    #[test]
    fn empty_postmortem_is_well_formed() {
        let pm = Postmortem::default();
        assert!(pm.layer_names().is_empty());
        assert_eq!(pm.window(), None);
        assert_eq!(pm.implicated_app(), None);
        let json = serde::json::to_string(&pm).unwrap();
        serde::json::from_str(&json).expect("empty postmortem parses");
    }
}
