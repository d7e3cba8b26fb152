//! The shared recorder handle and the trigger engine.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Serialize, SerializeStruct, Serializer};

use crate::blackbox::ring::{EventRing, RING_CAPACITY};
use crate::event::{Event, EventKind, Layer, NUM_LAYERS};
use crate::postmortem::{LayerDump, Postmortem};

/// What caused the rings to freeze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerCause {
    /// An `SloMonitor` rule burned.
    SloBurn,
    /// A policy trapped in the VM.
    VmTrap,
    /// The profiler flagged executor starvation.
    Starvation,
    /// `syrupctl blackbox trigger` (or [`Recorder::trigger_manual`]).
    Manual,
    /// A `scope` anomaly detector flagged a series.
    Anomaly,
}

impl TriggerCause {
    /// Every cause.
    pub const ALL: [TriggerCause; 5] = [
        TriggerCause::SloBurn,
        TriggerCause::VmTrap,
        TriggerCause::Starvation,
        TriggerCause::Manual,
        TriggerCause::Anomaly,
    ];

    /// Stable lowercase name used in JSON schemas.
    pub fn as_str(self) -> &'static str {
        match self {
            TriggerCause::SloBurn => "slo-burn",
            TriggerCause::VmTrap => "vm-trap",
            TriggerCause::Starvation => "starvation",
            TriggerCause::Manual => "manual",
            TriggerCause::Anomaly => "anomaly",
        }
    }

    fn index(self) -> usize {
        match self {
            TriggerCause::SloBurn => 0,
            TriggerCause::VmTrap => 1,
            TriggerCause::Starvation => 2,
            TriggerCause::Manual => 3,
            TriggerCause::Anomaly => 4,
        }
    }
}

/// Details of the trigger that froze the rings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerInfo {
    /// Which armed cause fired.
    pub cause: TriggerCause,
    /// Virtual time the trigger fired.
    pub at_ns: u64,
    /// Human-readable context (rule name, trap text, …).
    pub detail: String,
}

impl Serialize for TriggerInfo {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("TriggerInfo", 3)?;
        s.serialize_field("cause", &self.cause.as_str())?;
        s.serialize_field("at_ns", &self.at_ns)?;
        s.serialize_field("detail", &self.detail)?;
        s.end()
    }
}

#[derive(Debug)]
struct Inner {
    rings: [EventRing; NUM_LAYERS],
    /// Last virtual time seen by any timeful record site; timeless sites
    /// (queue push/pop, which carry no clock) stamp events with this.
    now: AtomicU64,
    /// Set once a trigger fires; record sites become no-ops, preserving
    /// the pre-trigger window.
    frozen: AtomicBool,
    /// Per-cause arming, [`TriggerCause::index`]-addressed.
    armed: [AtomicBool; TriggerCause::ALL.len()],
    trigger: Mutex<Option<TriggerInfo>>,
}

/// The flight-recorder handle. Cloning is cheap and shares the rings
/// (handle semantics, like `Registry`, `Tracer`, and `Profiler`); a
/// [`Recorder::disabled`] handle makes every record site a single
/// `Option` branch.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// An enabled recorder whose per-layer rings hold 1024 events, with
    /// every trigger cause armed.
    pub fn new() -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                rings: std::array::from_fn(|_| EventRing::new(RING_CAPACITY)),
                now: AtomicU64::new(0),
                frozen: AtomicBool::new(false),
                armed: std::array::from_fn(|_| AtomicBool::new(true)),
                trigger: Mutex::new(None),
            })),
        }
    }

    /// A disabled recorder: every record site is a single branch.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether events are being recorded at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Arms or disarms a trigger cause. All causes start armed.
    pub fn arm(&self, cause: TriggerCause, on: bool) {
        if let Some(inner) = &self.inner {
            inner.armed[cause.index()].store(on, Relaxed);
        }
    }

    /// Whether a trigger has fired and frozen the rings.
    pub fn frozen(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.frozen.load(SeqCst))
    }

    /// The trigger that froze the rings, if any.
    pub fn trigger(&self) -> Option<TriggerInfo> {
        self.inner.as_ref().and_then(|i| i.trigger.lock().clone())
    }

    /// Advances the recorder's clock; timeless record sites stamp events
    /// with the last value set here.
    #[inline]
    pub fn set_now(&self, now_ns: u64) {
        if let Some(inner) = &self.inner {
            inner.now.store(now_ns, Relaxed);
        }
    }

    /// The recorder's clock (last [`Recorder::set_now`] value).
    pub fn now(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.now.load(Relaxed))
    }

    // --- record sites, one per instrumented layer -----------------------

    /// Records a syrupd dispatch verdict. `ret` is the raw 64-bit policy
    /// return (`(rank << 32) | executor` for ranked verdicts). Also
    /// advances the recorder clock to `now_ns`.
    #[inline]
    pub fn dispatch(&self, now_ns: u64, app: u16, hook: u16, ret: u64, cycles: u64) {
        let Some(inner) = &self.inner else { return };
        inner.now.store(now_ns, Relaxed);
        let event = Event {
            at_ns: now_ns,
            kind: EventKind::Dispatch,
            id: app,
            aux: u32::from(hook),
            w0: ret,
            w1: cycles,
        };
        emit(inner, Layer::Syrupd, event, None);
    }

    /// Records a VM trap (`backend`: 0 interp, 1 fast) and fires the
    /// [`TriggerCause::VmTrap`] trigger if armed. `code` is the trap
    /// class; `detail` the rendered error.
    #[inline]
    pub fn vm_trap(&self, now_ns: u64, backend: u16, code: u32, detail: &str) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            at_ns: now_ns,
            kind: EventKind::VmTrap,
            id: backend,
            aux: code,
            w0: 0,
            w1: 0,
        };
        emit(
            inner,
            Layer::Vm,
            event,
            Some((TriggerCause::VmTrap, detail)),
        );
    }

    /// Records an invocation that hit the tail-call cap.
    #[inline]
    pub fn vm_tail_cap(&self, now_ns: u64, backend: u16, tail_calls: u32, ret: u64) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            at_ns: now_ns,
            kind: EventKind::VmTailCap,
            id: backend,
            aux: tail_calls,
            w0: ret,
            w1: 0,
        };
        emit(inner, Layer::Vm, event, None);
    }

    /// Records a full queue rejecting an enqueue (`layer` is
    /// [`Layer::Nic`] or [`Layer::Sock`]). Stamped with the recorder
    /// clock — queue operations carry no timestamp of their own.
    #[inline]
    pub fn enqueue_drop(&self, layer: Layer, queue: u16, rank: u32, depth: u64) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            at_ns: inner.now.load(Relaxed),
            kind: EventKind::EnqueueDrop,
            id: queue,
            aux: rank,
            w0: depth,
            w1: 0,
        };
        emit(inner, layer, event, None);
    }

    /// Records a queue depth crossing its threshold (`up`: rising edge).
    #[inline]
    pub fn depth_cross(&self, layer: Layer, queue: u16, up: bool, depth: u64, threshold: u64) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            at_ns: inner.now.load(Relaxed),
            kind: if up {
                EventKind::DepthUp
            } else {
                EventKind::DepthDown
            },
            id: queue,
            aux: 0,
            w0: depth,
            w1: threshold,
        };
        emit(inner, layer, event, None);
    }

    /// Records a ghOSt thread-state change (`state`: 0 runnable,
    /// 1 running, 2 blocked).
    #[inline]
    pub fn thread_state(&self, now_ns: u64, tid: u64, state: u32) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            at_ns: now_ns,
            kind: EventKind::ThreadState,
            id: tid as u16,
            aux: state,
            w0: tid,
            w1: 0,
        };
        emit(inner, Layer::Ghost, event, None);
    }

    /// Records an SLO burn and fires the [`TriggerCause::SloBurn`]
    /// trigger if armed. Also advances the recorder clock.
    #[inline]
    pub fn slo_burn(&self, now_ns: u64, rule: u16, value: u64, threshold: u64, detail: &str) {
        let Some(inner) = &self.inner else { return };
        inner.now.store(now_ns, Relaxed);
        let event = Event {
            at_ns: now_ns,
            kind: EventKind::SloBurn,
            id: rule,
            aux: 0,
            w0: value,
            w1: threshold,
        };
        emit(
            inner,
            Layer::Slo,
            event,
            Some((TriggerCause::SloBurn, detail)),
        );
    }

    /// Records an executor-starvation flag and fires the
    /// [`TriggerCause::Starvation`] trigger if armed.
    #[inline]
    pub fn starvation(&self, now_ns: u64, tid: u64, runnable_ns: u64) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            at_ns: now_ns,
            kind: EventKind::Starvation,
            id: tid as u16,
            aux: 0,
            w0: tid,
            w1: runnable_ns,
        };
        let detail = format!("thread {tid} runnable {runnable_ns}ns");
        emit(
            inner,
            Layer::Ghost,
            event,
            Some((TriggerCause::Starvation, &detail)),
        );
    }

    /// Records a time-series anomaly flagged by a `scope` detector
    /// and fires the [`TriggerCause::Anomaly`] trigger if armed.
    /// `series` is the detector's series index, `z_centi` the |z-score|
    /// scaled by 100, `value`/`baseline` the observed value and the
    /// series median it deviated from. Also advances the recorder clock.
    #[inline]
    pub fn anomaly(
        &self,
        now_ns: u64,
        series: u16,
        z_centi: u32,
        value: u64,
        baseline: u64,
        detail: &str,
    ) {
        let Some(inner) = &self.inner else { return };
        inner.now.store(now_ns, Relaxed);
        let event = Event {
            at_ns: now_ns,
            kind: EventKind::Anomaly,
            id: series,
            aux: z_centi,
            w0: value,
            w1: baseline,
        };
        emit(
            inner,
            Layer::Slo,
            event,
            Some((TriggerCause::Anomaly, detail)),
        );
    }

    /// Fires the manual trigger (`syrupctl blackbox trigger`), recording
    /// a [`EventKind::Trigger`] event first.
    pub fn trigger_manual(&self, detail: &str) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            at_ns: inner.now.load(Relaxed),
            kind: EventKind::Trigger,
            id: 0,
            aux: 0,
            w0: 0,
            w1: 0,
        };
        emit(
            inner,
            Layer::Syrupd,
            event,
            Some((TriggerCause::Manual, detail)),
        );
    }

    // --- capture --------------------------------------------------------

    /// Reads one layer's retained events (oldest first) and its torn
    /// count. Empty for a disabled recorder.
    pub fn events(&self, layer: Layer) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.rings[layer.index()].read().0)
    }

    /// Events a layer lost to overwriting.
    pub fn dropped(&self, layer: Layer) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.rings[layer.index()].dropped())
    }

    /// Captures the full per-layer dump plus trigger info — the
    /// postmortem core. Works on live and frozen recorders alike (a
    /// frozen one is quiescent, so nothing reads back torn).
    pub fn capture(&self) -> Postmortem {
        let Some(inner) = &self.inner else {
            return Postmortem::default();
        };
        let layers = Layer::ALL
            .iter()
            .map(|&layer| {
                let ring = &inner.rings[layer.index()];
                let (events, torn) = ring.read();
                LayerDump {
                    layer,
                    events,
                    dropped: ring.dropped(),
                    torn,
                }
            })
            .collect();
        Postmortem {
            trigger: inner.trigger.lock().clone(),
            layers,
        }
    }
}

/// The one slow path behind every record site: appends `event` to
/// `layer`'s ring unless the rings are frozen, then, for a triggering
/// site, freezes them if its cause is armed and nothing fired yet. The
/// trigger comes *after* the record, so the postmortem window includes
/// its own cause.
#[cold]
fn emit(inner: &Inner, layer: Layer, event: Event, trigger: Option<(TriggerCause, &str)>) {
    if !inner.frozen.load(SeqCst) {
        inner.rings[layer.index()].push(event);
    }
    let Some((cause, detail)) = trigger else {
        return;
    };
    if !inner.armed[cause.index()].load(Relaxed) {
        return;
    }
    let at_ns = event.at_ns;
    if inner.frozen.swap(true, SeqCst) {
        return;
    }
    *inner.trigger.lock() = Some(TriggerInfo {
        cause,
        at_ns,
        detail: detail.to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        rec.dispatch(1, 1, 4, 3, 100);
        rec.vm_trap(2, 0, 5, "boom");
        rec.slo_burn(3, 0, 900, 100, "rule");
        rec.trigger_manual("x");
        assert!(!rec.is_enabled());
        assert!(!rec.frozen());
        assert!(rec.trigger().is_none());
        let pm = rec.capture();
        assert!(pm.layers.is_empty());
    }

    #[test]
    fn events_land_in_their_layer_rings() {
        let rec = Recorder::new();
        rec.dispatch(10, 1, 4, (7u64 << 32) | 2, 1500);
        rec.set_now(11);
        rec.enqueue_drop(Layer::Nic, 3, 0, 64);
        rec.thread_state(12, 42, 1);
        assert_eq!(rec.events(Layer::Syrupd).len(), 1);
        assert_eq!(rec.events(Layer::Nic).len(), 1);
        assert_eq!(rec.events(Layer::Ghost).len(), 1);
        assert_eq!(rec.events(Layer::Slo).len(), 0);
        // Timeless sites took the recorder clock.
        assert_eq!(rec.events(Layer::Nic)[0].at_ns, 11);
        // The dispatch verdict kept the full (rank, executor) encoding.
        assert_eq!(rec.events(Layer::Syrupd)[0].w0 >> 32, 7);
    }

    #[test]
    fn slo_burn_freezes_after_recording_the_burn() {
        let rec = Recorder::new();
        rec.dispatch(1, 1, 4, 0, 10);
        rec.slo_burn(2, 0, 900, 100, "vm/run_cycles p99");
        assert!(rec.frozen());
        let trig = rec.trigger().expect("trigger fired");
        assert_eq!(trig.cause, TriggerCause::SloBurn);
        assert_eq!(trig.at_ns, 2);
        // The burn itself is in the window; later events are not.
        assert_eq!(rec.events(Layer::Slo).len(), 1);
        rec.dispatch(3, 1, 4, 0, 10);
        assert_eq!(rec.events(Layer::Syrupd).len(), 1);
    }

    #[test]
    fn disarmed_causes_do_not_freeze() {
        let rec = Recorder::new();
        rec.arm(TriggerCause::VmTrap, false);
        rec.vm_trap(5, 1, 2, "trap");
        assert!(!rec.frozen());
        assert_eq!(rec.events(Layer::Vm).len(), 1);
        // First armed cause wins; a second cause cannot overwrite it.
        rec.trigger_manual("first");
        rec.slo_burn(9, 0, 1, 0, "second");
        assert_eq!(rec.trigger().unwrap().cause, TriggerCause::Manual);
    }

    #[test]
    fn anomaly_freezes_with_its_own_cause() {
        let rec = Recorder::new();
        rec.anomaly(15, 2, 830, 950, 120, "shard3/events z=8.3");
        assert!(rec.frozen());
        let trig = rec.trigger().expect("trigger fired");
        assert_eq!(trig.cause, TriggerCause::Anomaly);
        assert_eq!(trig.cause.as_str(), "anomaly");
        assert_eq!(trig.at_ns, 15);
        // The postmortem contains its own cause: the anomaly event is
        // the last thing in the SLO ring.
        let events = rec.events(Layer::Slo);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Anomaly);
        assert_eq!(events[0].id, 2);
        assert_eq!(events[0].aux, 830);
        assert_eq!(events[0].w0, 950);
        assert_eq!(events[0].w1, 120);
        // Disarmed anomaly cause records but does not freeze.
        let quiet = Recorder::new();
        quiet.arm(TriggerCause::Anomaly, false);
        quiet.anomaly(1, 0, 400, 10, 1, "x");
        assert!(!quiet.frozen());
        assert_eq!(quiet.events(Layer::Slo).len(), 1);
    }

    #[test]
    fn clones_share_rings() {
        let rec = Recorder::new();
        let clone = rec.clone();
        clone.dispatch(1, 2, 0, 0, 5);
        assert_eq!(rec.events(Layer::Syrupd).len(), 1);
    }

    #[test]
    fn capture_collects_every_layer() {
        let rec = Recorder::new();
        for t in 0..RING_CAPACITY as u64 {
            rec.dispatch(t, 1, 4, 0, 10);
        }
        assert_eq!(rec.dropped(Layer::Syrupd), 0);
        rec.set_now(RING_CAPACITY as u64);
        rec.depth_cross(Layer::Sock, 0, true, 2, 1);
        // Event 1 025 on the syrupd ring wraps it.
        rec.trigger_manual("capture test");
        let pm = rec.capture();
        assert_eq!(pm.layers.len(), NUM_LAYERS);
        let syrupd = &pm.layers[Layer::Syrupd.index()];
        assert_eq!(syrupd.events.len(), RING_CAPACITY);
        assert_eq!(syrupd.dropped, 1);
        assert_eq!(syrupd.torn, 0);
        assert!(pm.trigger.is_some());
        assert!(pm.layer_names().contains(&"sock"));
    }
}
