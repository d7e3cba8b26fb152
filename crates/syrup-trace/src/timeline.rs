//! Reconstructing per-request timelines from a flat record stream.

use crate::span::{SpanKind, SpanRecord};
use crate::stage::Stage;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Why a timeline failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineError {
    /// A record's `end_ns` precedes its `start_ns`.
    NonMonotonicSpan {
        /// Stage of the offending record.
        stage: Stage,
    },
    /// Two complete spans at the same stage overlap in time.
    OverlappingStage {
        /// Stage at which the overlap occurred.
        stage: Stage,
    },
    /// The trace has an ingress record but neither an [`Stage::End`]
    /// instant nor a [`SpanKind::Dropped`] record — the input vanished.
    Unclosed,
    /// A record precedes the trace's ingress instant.
    BeforeIngress {
        /// Stage of the offending record.
        stage: Stage,
    },
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::NonMonotonicSpan { stage } => {
                write!(f, "span at {stage} ends before it starts")
            }
            TimelineError::OverlappingStage { stage } => {
                write!(f, "overlapping complete spans at {stage}")
            }
            TimelineError::Unclosed => write!(f, "trace has ingress but no end/dropped record"),
            TimelineError::BeforeIngress { stage } => {
                write!(f, "record at {stage} precedes ingress")
            }
        }
    }
}

/// One request's reconstructed journey: all records sharing a trace id,
/// ordered by start time.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The trace id all records share.
    pub trace_id: u64,
    /// Records ordered by `start_ns` (ties keep recording order).
    pub records: Vec<SpanRecord>,
}

impl Timeline {
    /// Ingress timestamp, if the trace has an ingress instant.
    pub fn ingress_ns(&self) -> Option<u64> {
        self.records
            .iter()
            .find(|r| r.stage == Stage::Ingress)
            .map(|r| r.start_ns)
    }

    /// Close timestamp: the [`Stage::End`] instant or the
    /// [`SpanKind::Dropped`] record, whichever exists.
    pub fn close_ns(&self) -> Option<u64> {
        self.records
            .iter()
            .find(|r| r.stage == Stage::End || r.kind == SpanKind::Dropped)
            .map(|r| r.start_ns)
    }

    /// Whether the input was dropped rather than completed.
    pub fn is_dropped(&self) -> bool {
        self.records.iter().any(|r| r.kind == SpanKind::Dropped)
    }

    /// End-to-end latency (ingress → close), if both ends exist.
    pub fn total_ns(&self) -> Option<u64> {
        match (self.ingress_ns(), self.close_ns()) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        }
    }

    /// The distinct stages this trace has records at, in stack order.
    pub fn stages(&self) -> Vec<Stage> {
        Stage::ALL
            .into_iter()
            .filter(|s| self.records.iter().any(|r| r.stage == *s))
            .collect()
    }

    /// Number of distinct *hook* stages (policy invocations) the trace
    /// touched — the "multi-hook" criterion for a cross-stack trace.
    pub fn distinct_hook_stages(&self) -> usize {
        const HOOKS: [Stage; 6] = [
            Stage::XdpOffload,
            Stage::XdpDrv,
            Stage::XdpSkb,
            Stage::CpuRedirect,
            Stage::SocketSelect,
            Stage::ThreadScheduler,
        ];
        HOOKS
            .iter()
            .filter(|s| self.records.iter().any(|r| r.stage == **s))
            .count()
    }

    /// Checks the structural invariants of a well-formed trace:
    ///
    /// 1. every record's interval is monotonic (`end >= start`);
    /// 2. complete spans at the same stage do not overlap;
    /// 3. no record precedes the ingress instant;
    /// 4. a trace that has an ingress is closed — by an [`Stage::End`]
    ///    instant or a [`SpanKind::Dropped`] record.
    pub fn validate(&self) -> Result<(), TimelineError> {
        for r in &self.records {
            if r.end_ns < r.start_ns {
                return Err(TimelineError::NonMonotonicSpan { stage: r.stage });
            }
        }
        if let Some(ingress) = self.ingress_ns() {
            for r in &self.records {
                if r.start_ns < ingress {
                    return Err(TimelineError::BeforeIngress { stage: r.stage });
                }
            }
            if self.close_ns().is_none() {
                return Err(TimelineError::Unclosed);
            }
        }
        let mut per_stage: BTreeMap<Stage, Vec<(u64, u64)>> = BTreeMap::new();
        for r in &self.records {
            if r.kind == SpanKind::Complete {
                per_stage
                    .entry(r.stage)
                    .or_default()
                    .push((r.start_ns, r.end_ns));
            }
        }
        for (stage, mut spans) in per_stage {
            spans.sort_unstable();
            for pair in spans.windows(2) {
                // Touching at the boundary (end == next start) is fine.
                if pair[1].0 < pair[0].1 {
                    return Err(TimelineError::OverlappingStage { stage });
                }
            }
        }
        Ok(())
    }
}

/// Groups a flat record stream by trace id into [`Timeline`]s, ordered by
/// first-seen trace. Global records (`trace_id == 0`) are skipped — they
/// are not part of any one request's journey.
///
/// Linear: one pass numbers each trace by its first appearance and counts
/// its records, a second moves every record into a timeline allocated at
/// its exact size, and each timeline is then stably sorted by `start_ns`
/// (already in order when the stream is).
pub fn reconstruct(records: &[SpanRecord]) -> Vec<Timeline> {
    let traced = || records.iter().filter(|r| r.trace_id != 0);
    // Grown rather than sized to the stream: a trace has several records,
    // and a map sized to all of them scatters the few ids it holds over
    // many more cache lines.
    let mut numbers: HashMap<u64, u32> = HashMap::new();
    // Each traced record's timeline, in stream order.
    let mut slots: Vec<u32> = Vec::with_capacity(records.len());
    // `(trace_id, records)` per timeline, in first-seen order.
    let mut sizes: Vec<(u64, usize)> = Vec::new();
    for r in traced() {
        let next = sizes.len() as u32;
        let slot = *numbers.entry(r.trace_id).or_insert(next);
        if slot == next {
            sizes.push((r.trace_id, 0));
        }
        sizes[slot as usize].1 += 1;
        slots.push(slot);
    }
    let mut timelines: Vec<Timeline> = sizes
        .into_iter()
        .map(|(trace_id, n)| Timeline {
            trace_id,
            records: Vec::with_capacity(n),
        })
        .collect();
    for (r, slot) in traced().zip(slots) {
        timelines[slot as usize].records.push(*r);
    }
    for timeline in &mut timelines {
        timeline.records.sort_by_key(|r| r.start_ns);
    }
    timelines
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The grouping `reconstruct` replaced, kept as its reference: an
    /// ordered map of growing vectors.
    fn reconstruct_reference(records: &[SpanRecord]) -> Vec<Timeline> {
        let mut order: Vec<u64> = Vec::new();
        let mut by_id: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
        for r in records {
            if r.trace_id == 0 {
                continue;
            }
            let entry = by_id.entry(r.trace_id).or_default();
            if entry.is_empty() {
                order.push(r.trace_id);
            }
            entry.push(*r);
        }
        order
            .into_iter()
            .map(|trace_id| {
                let mut records = by_id.remove(&trace_id).unwrap_or_default();
                records.sort_by_key(|r| r.start_ns);
                Timeline { trace_id, records }
            })
            .collect()
    }

    fn pairs(timelines: Vec<Timeline>) -> Vec<(u64, Vec<SpanRecord>)> {
        timelines
            .into_iter()
            .map(|t| (t.trace_id, t.records))
            .collect()
    }

    /// Streams of interleaved traces: ids from a handful (0 the global
    /// one), in every other stream with a few far apart too; starts from
    /// a narrow range so ties are common and order is random; `arg`
    /// numbers each record so a tie broken the wrong way shows.
    fn stream() -> impl Strategy<Value = Vec<SpanRecord>> {
        let record = (0u64..8, 0u64..8, 0usize..Stage::ALL.len(), 0u8..3, 0u64..4);
        let picks = (0u8..2, proptest::collection::vec(record, 0..200));
        picks.prop_map(|(spread, picks)| {
            let kinds = [SpanKind::Complete, SpanKind::Instant, SpanKind::Dropped];
            let id = |id| match (spread, id) {
                (1, 6) => 1 << 40,
                (1, 7) => u64::MAX,
                (_, id) => id % 6,
            };
            picks
                .into_iter()
                .enumerate()
                .map(|(i, (pick, start, stage, kind, len))| SpanRecord {
                    trace_id: id(pick),
                    stage: Stage::ALL[stage],
                    start_ns: start,
                    end_ns: start + len,
                    kind: kinds[usize::from(kind)],
                    verdict: 0,
                    cycles: 0,
                    arg: i as u64,
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn linear_pass_matches_the_reference(records in stream()) {
            prop_assert_eq!(
                pairs(reconstruct(&records)),
                pairs(reconstruct_reference(&records))
            );
        }
    }

    fn rec(id: u64, stage: Stage, start: u64, end: u64, kind: SpanKind) -> SpanRecord {
        SpanRecord {
            trace_id: id,
            stage,
            start_ns: start,
            end_ns: end,
            kind,
            verdict: 0,
            cycles: 0,
            arg: 0,
        }
    }

    fn complete(id: u64, stage: Stage, start: u64, end: u64) -> SpanRecord {
        rec(id, stage, start, end, SpanKind::Complete)
    }

    fn instant(id: u64, stage: Stage, at: u64) -> SpanRecord {
        rec(id, stage, at, at, SpanKind::Instant)
    }

    #[test]
    fn groups_by_trace_and_skips_globals() {
        let records = vec![
            instant(1, Stage::Ingress, 0),
            instant(0, Stage::PolicyLifecycle, 1),
            complete(2, Stage::Run, 5, 9),
            complete(1, Stage::Run, 2, 4),
            instant(1, Stage::End, 4),
        ];
        let timelines = reconstruct(&records);
        assert_eq!(timelines.len(), 2);
        assert_eq!(timelines[0].trace_id, 1);
        assert_eq!(timelines[0].records.len(), 3);
        assert_eq!(timelines[1].trace_id, 2);
    }

    #[test]
    fn timeline_accessors() {
        let tl = Timeline {
            trace_id: 3,
            records: vec![
                instant(3, Stage::Ingress, 100),
                complete(3, Stage::SocketSelect, 110, 120),
                complete(3, Stage::ThreadScheduler, 130, 150),
                complete(3, Stage::Run, 150, 400),
                instant(3, Stage::End, 400),
            ],
        };
        assert_eq!(tl.ingress_ns(), Some(100));
        assert_eq!(tl.close_ns(), Some(400));
        assert_eq!(tl.total_ns(), Some(300));
        assert!(!tl.is_dropped());
        assert_eq!(tl.distinct_hook_stages(), 2);
        assert!(tl.validate().is_ok());
    }

    #[test]
    fn dropped_trace_is_closed() {
        let tl = Timeline {
            trace_id: 4,
            records: vec![
                instant(4, Stage::Ingress, 0),
                rec(4, Stage::SockQueue, 10, 10, SpanKind::Dropped),
            ],
        };
        assert!(tl.is_dropped());
        assert_eq!(tl.total_ns(), Some(10));
        assert!(tl.validate().is_ok());
    }

    #[test]
    fn unclosed_trace_fails_validation() {
        let tl = Timeline {
            trace_id: 5,
            records: vec![instant(5, Stage::Ingress, 0), complete(5, Stage::Run, 1, 2)],
        };
        assert_eq!(tl.validate(), Err(TimelineError::Unclosed));
    }

    #[test]
    fn overlapping_same_stage_spans_fail_validation() {
        let tl = Timeline {
            trace_id: 6,
            records: vec![
                complete(6, Stage::Run, 0, 10),
                complete(6, Stage::Run, 5, 15),
            ],
        };
        assert_eq!(
            tl.validate(),
            Err(TimelineError::OverlappingStage { stage: Stage::Run })
        );
        // Different stages may overlap (queueing vs policy work).
        let ok = Timeline {
            trace_id: 6,
            records: vec![
                complete(6, Stage::SockQueue, 0, 10),
                complete(6, Stage::Run, 5, 15),
            ],
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn touching_spans_do_not_overlap() {
        let tl = Timeline {
            trace_id: 7,
            records: vec![
                complete(7, Stage::Run, 0, 10),
                complete(7, Stage::Run, 10, 20),
            ],
        };
        assert!(tl.validate().is_ok());
    }

    #[test]
    fn record_before_ingress_fails_validation() {
        let tl = Timeline {
            trace_id: 8,
            records: vec![
                complete(8, Stage::StackRx, 0, 5),
                instant(8, Stage::Ingress, 3),
                instant(8, Stage::End, 9),
            ],
        };
        assert_eq!(
            tl.validate(),
            Err(TimelineError::BeforeIngress {
                stage: Stage::StackRx
            })
        );
    }
}
