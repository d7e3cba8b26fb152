//! Per-stage latency attribution across a set of timelines.

use crate::span::SpanKind;
use crate::stage::Stage;
use crate::telemetry::nearest_rank;
use crate::timeline::Timeline;
use serde::{Serialize, SerializeStruct, Serializer};
use std::fmt::Write as _;

/// Latency statistics for one stage, aggregated over every complete span
/// recorded at it.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// The stage.
    pub stage: Stage,
    /// Number of complete spans observed.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Mean span duration, ns.
    pub mean_ns: f64,
    /// Median span duration, ns.
    pub p50_ns: u64,
    /// 99th-percentile span duration, ns.
    pub p99_ns: u64,
    /// 99.9th-percentile span duration, ns.
    pub p999_ns: u64,
    /// Largest span duration, ns.
    pub max_ns: u64,
}

impl Serialize for StageStats {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("StageStats", 8)?;
        s.serialize_field("stage", &self.stage.as_str())?;
        s.serialize_field("count", &self.count)?;
        s.serialize_field("total_ns", &self.total_ns)?;
        s.serialize_field("mean_ns", &self.mean_ns)?;
        s.serialize_field("p50_ns", &self.p50_ns)?;
        s.serialize_field("p99_ns", &self.p99_ns)?;
        s.serialize_field("p999_ns", &self.p999_ns)?;
        s.serialize_field("max_ns", &self.max_ns)?;
        s.end()
    }
}

/// The per-stage latency breakdown: where do requests spend their time,
/// and which stages drive the tail.
#[derive(Debug, Clone)]
pub struct StageBreakdown {
    /// Timelines aggregated.
    pub traces: u64,
    /// Of those, traces closed by a drop.
    pub dropped: u64,
    /// End-to-end (ingress → close) percentiles, ns: (p50, p99, p999).
    pub total: Option<(u64, u64, u64)>,
    /// Stats per stage with at least one complete span, stack order.
    pub stages: Vec<StageStats>,
}

impl StageBreakdown {
    /// Aggregates every complete span across `timelines` into per-stage
    /// stats, plus end-to-end percentiles over closed traces.
    pub fn from_timelines(timelines: &[Timeline]) -> Self {
        let mut per_stage: Vec<Vec<u64>> = vec![Vec::new(); Stage::ALL.len()];
        let mut totals: Vec<u64> = Vec::new();
        let mut dropped = 0u64;
        for tl in timelines {
            if tl.is_dropped() {
                dropped += 1;
            }
            if let Some(t) = tl.total_ns() {
                totals.push(t);
            }
            for r in &tl.records {
                if r.kind == SpanKind::Complete {
                    let idx = Stage::ALL.iter().position(|s| *s == r.stage).unwrap_or(0);
                    per_stage[idx].push(r.duration_ns());
                }
            }
        }
        totals.sort_unstable();
        let total = if totals.is_empty() {
            None
        } else {
            Some((
                nearest_rank(&totals, 0.50),
                nearest_rank(&totals, 0.99),
                nearest_rank(&totals, 0.999),
            ))
        };
        let stages = Stage::ALL
            .iter()
            .zip(per_stage.iter_mut())
            .filter(|(_, durs)| !durs.is_empty())
            .map(|(stage, durs)| {
                durs.sort_unstable();
                let count = durs.len() as u64;
                let total_ns: u64 = durs.iter().sum();
                StageStats {
                    stage: *stage,
                    count,
                    total_ns,
                    mean_ns: total_ns as f64 / count as f64,
                    p50_ns: nearest_rank(durs, 0.50),
                    p99_ns: nearest_rank(durs, 0.99),
                    p999_ns: nearest_rank(durs, 0.999),
                    max_ns: *durs.last().unwrap(),
                }
            })
            .collect();
        StageBreakdown {
            traces: timelines.len() as u64,
            dropped,
            total,
            stages,
        }
    }

    /// Stats for one stage, if any complete span was recorded at it.
    /// Stages that never completed a span (zero samples) are absent from
    /// [`StageBreakdown::stages`] rather than present with garbage
    /// percentiles, so querying them returns `None`.
    pub fn stage(&self, stage: Stage) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// Renders the breakdown as an aligned text table (the body of
    /// `syrupctl trace report`).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "traces: {}  dropped: {}", self.traces, self.dropped);
        if let Some((p50, p99, p999)) = self.total {
            let _ = writeln!(
                out,
                "end-to-end: p50 {p50} ns  p99 {p99} ns  p99.9 {p999} ns"
            );
        }
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "STAGE", "COUNT", "MEAN(ns)", "P50(ns)", "P99(ns)", "P99.9(ns)", "MAX(ns)"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<18} {:>8} {:>12.1} {:>12} {:>12} {:>12} {:>12}",
                s.stage.as_str(),
                s.count,
                s.mean_ns,
                s.p50_ns,
                s.p99_ns,
                s.p999_ns,
                s.max_ns
            );
        }
        out
    }
}

impl Serialize for StageBreakdown {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("StageBreakdown", 6)?;
        s.serialize_field("traces", &self.traces)?;
        s.serialize_field("dropped", &self.dropped)?;
        match self.total {
            Some((p50, p99, p999)) => {
                s.serialize_field("total_p50_ns", &p50)?;
                s.serialize_field("total_p99_ns", &p99)?;
                s.serialize_field("total_p999_ns", &p999)?;
            }
            None => {
                s.serialize_field("total_p50_ns", &0u64)?;
                s.serialize_field("total_p99_ns", &0u64)?;
                s.serialize_field("total_p999_ns", &0u64)?;
            }
        }
        s.serialize_field("stages", &self.stages)?;
        s.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecord;
    use crate::timeline::reconstruct;

    fn records_for(id: u64, run_ns: u64) -> Vec<SpanRecord> {
        let base = id * 1_000;
        let mk = |stage, start: u64, end: u64, kind| SpanRecord {
            trace_id: id,
            stage,
            start_ns: base + start,
            end_ns: base + end,
            kind,
            verdict: 0,
            cycles: 0,
            arg: 0,
        };
        vec![
            mk(Stage::Ingress, 0, 0, SpanKind::Instant),
            mk(Stage::SocketSelect, 10, 20, SpanKind::Complete),
            mk(Stage::Run, 20, 20 + run_ns, SpanKind::Complete),
            mk(Stage::End, 20 + run_ns, 20 + run_ns, SpanKind::Instant),
        ]
    }

    #[test]
    fn breakdown_attributes_stage_latency() {
        let mut records = Vec::new();
        for (i, run) in [100u64, 200, 300, 400].into_iter().enumerate() {
            records.extend(records_for(i as u64 + 1, run));
        }
        let timelines = reconstruct(&records);
        let bd = StageBreakdown::from_timelines(&timelines);
        assert_eq!(bd.traces, 4);
        assert_eq!(bd.dropped, 0);
        let run = bd.stages.iter().find(|s| s.stage == Stage::Run).unwrap();
        assert_eq!(run.count, 4);
        assert_eq!(run.p50_ns, 200);
        assert_eq!(run.p99_ns, 400);
        assert_eq!(run.max_ns, 400);
        let sock = bd
            .stages
            .iter()
            .find(|s| s.stage == Stage::SocketSelect)
            .unwrap();
        assert_eq!(sock.p50_ns, 10);
        let (p50, _, _) = bd.total.unwrap();
        assert_eq!(p50, 220);
        // Stack order preserved: socket-select before run.
        let order: Vec<Stage> = bd.stages.iter().map(|s| s.stage).collect();
        assert_eq!(order, vec![Stage::SocketSelect, Stage::Run]);
    }

    #[test]
    fn table_renders_all_stages() {
        let records = records_for(1, 50);
        let bd = StageBreakdown::from_timelines(&reconstruct(&records));
        let table = bd.render_table();
        assert!(table.contains("socket-select"));
        assert!(table.contains("run"));
        assert!(table.contains("end-to-end"));
    }

    #[test]
    fn json_round_trip_has_stage_keys() {
        let records = records_for(1, 50);
        let bd = StageBreakdown::from_timelines(&reconstruct(&records));
        let json = serde::json::to_string(&bd).unwrap();
        let value = serde::json::from_str(&json).expect("parses");
        assert_eq!(value.get("traces").and_then(|v| v.as_u64()), Some(1));
        let stages = value.get("stages").and_then(|v| v.as_array()).unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(
            stages[0].get("stage").and_then(|v| v.as_str()),
            Some("socket-select")
        );
    }

    #[test]
    fn empty_input_is_empty_breakdown() {
        let bd = StageBreakdown::from_timelines(&[]);
        assert_eq!(bd.traces, 0);
        assert!(bd.total.is_none());
        assert!(bd.stages.is_empty());
        // The empty report still renders and serializes to the stable
        // schema (zeros for end-to-end percentiles, empty stage list).
        let table = bd.render_table();
        assert!(table.contains("traces: 0"));
        let value = serde::json::from_str(&serde::json::to_string(&bd).unwrap()).unwrap();
        assert_eq!(value.get("total_p50_ns").and_then(|v| v.as_u64()), Some(0));
        assert!(value
            .get("stages")
            .and_then(|v| v.as_array())
            .is_some_and(|s| s.is_empty()));
    }

    #[test]
    fn zero_sample_timelines_yield_a_well_defined_empty_report() {
        // Timelines that never completed a span: an ingress instant with
        // no closing `end`, the shape an aborted or still-in-flight
        // request leaves behind. Percentile queries must not panic or
        // invent values.
        let records = vec![SpanRecord {
            trace_id: 9,
            stage: Stage::Ingress,
            start_ns: 100,
            end_ns: 100,
            kind: SpanKind::Instant,
            verdict: 0,
            cycles: 0,
            arg: 0,
        }];
        let timelines = reconstruct(&records);
        assert_eq!(timelines.len(), 1);
        let bd = StageBreakdown::from_timelines(&timelines);
        assert_eq!(bd.traces, 1);
        assert!(bd.total.is_none(), "unclosed trace has no end-to-end time");
        assert!(bd.stages.is_empty(), "no complete spans, no stage rows");
        // Querying a stage with zero samples is None, not a zeroed row.
        assert!(bd.stage(Stage::Run).is_none());
        assert!(!bd.render_table().is_empty());
    }

    #[test]
    fn stage_query_distinguishes_sampled_from_unsampled() {
        let records = records_for(1, 50);
        let bd = StageBreakdown::from_timelines(&reconstruct(&records));
        assert!(bd.stage(Stage::Run).is_some());
        assert!(bd.stage(Stage::NicQueue).is_none());
    }

    #[test]
    fn percentile_degrades_gracefully_on_bad_p() {
        let sorted = [10u64, 20, 30];
        assert_eq!(nearest_rank(&sorted, f64::NAN), 10);
        assert_eq!(nearest_rank(&sorted, -1.0), 10);
        assert_eq!(nearest_rank(&sorted, 2.0), 30);
        assert_eq!(nearest_rank::<u64>(&[], 0.5), 0);
    }
}
