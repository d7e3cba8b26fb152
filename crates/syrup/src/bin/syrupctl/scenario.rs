//! The one scenario runner: every introspection, trace, profile and
//! flight-recorder subcommand reports on a quickstart run set up here.

use syrup::apps::quickstart::{self, Quickstart};
use syrup::blackbox::Recorder;
use syrup::core::Syrupd;
use syrup::profile::Profiler;
use syrup::trace::Tracer;

use crate::args::{flag_value, has_flag, num_flag, positive_flag};

/// An observability sink a subcommand can ask to have live during the run.
pub enum Sink {
    Tracer,
    Profiler,
    Recorder,
}

/// What the shared scenario flags selected, and the sinks the subcommand
/// asked for (the others are the disabled handles).
pub struct Scenario {
    tracer: Tracer,
    pub profiler: Profiler,
    pub recorder: Recorder,
    pub requests: usize,
    ranked: bool,
    shards: usize,
}

impl Scenario {
    /// Parses the shared scenario flags once: `--scenario`, `--requests`,
    /// `--ranked` (the rank-extension variant: PIFO sockets, `(q, rank)`
    /// policy), `--shards N` (spreads the ingress schedule over N timer
    /// wheels; the scenario result is shard-count invariant — see
    /// [`quickstart::run_driven`] — but the per-wheel `sim/wheel_*`
    /// metrics, including the drift gauge, reflect the sharded replay)
    /// and the tracer's `--sample`.
    pub fn parse(args: &[String], sinks: &[Sink]) -> Result<Scenario, String> {
        if let Some(scenario) = flag_value(args, "--scenario")? {
            if scenario != "quickstart" {
                return Err(format!(
                    "unknown scenario `{scenario}` (only `quickstart` is built in)"
                ));
            }
        }
        let requests = num_flag(args, "--requests", quickstart::DEFAULT_REQUESTS)?;
        let sample_every = num_flag(args, "--sample", 1)?;
        let mut scenario = Scenario {
            tracer: Tracer::disabled(),
            profiler: Profiler::disabled(),
            recorder: Recorder::disabled(),
            requests,
            ranked: has_flag(args, "--ranked"),
            shards: positive_flag(args, "--shards", 1)?,
        };
        for sink in sinks {
            match sink {
                Sink::Tracer => scenario.tracer = Tracer::sampled(sample_every),
                Sink::Profiler => scenario.profiler = Profiler::new(),
                Sink::Recorder => scenario.recorder = Recorder::new(),
            }
        }
        scenario.profiler.attach_blackbox(&scenario.recorder);
        Ok(scenario)
    }

    /// Runs the scenario to completion; `observe` sees `(completed,
    /// now_ns, &syrupd)` after every request.
    pub fn run(&self, observe: &mut dyn FnMut(u64, u64, &Syrupd)) -> Quickstart {
        quickstart::run_driven(
            &self.tracer,
            &self.profiler,
            &self.recorder,
            self.requests,
            self.ranked,
            self.shards,
            observe,
        )
    }
}

/// The scenario run unobserved: the populated daemon the introspection
/// commands report on, plus the profiler handle (disabled unless asked
/// for).
pub fn run(args: &[String], sinks: &[Sink]) -> Result<(Quickstart, Profiler), String> {
    let scenario = Scenario::parse(args, sinks)?;
    Ok((scenario.run(&mut |_, _, _| {}), scenario.profiler))
}
