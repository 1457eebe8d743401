//! The probe stack of one run: live analysis tap, JSONL trace and
//! panic flight ring, built from one description and torn down in the
//! order that flushes the trace before the analysis is read.
//!
//! Every run harness — the sweep, `phantom run` on a topology or a
//! scene, `phantom resume` and the daemon — installs its probes here,
//! so each artifact carries the same manifest line whichever harness
//! wrote it. Probes observe; none of them changes an event.

use phantom_analyze::{
    AnalysisHandle, AnalysisReport, AnalysisSink, AnalysisTargets, StreamingAnalyzer,
};
use phantom_metrics::manifest::{Manifest, POSTMORTEM_SCHEMA, TRACE_SCHEMA};
use phantom_sim::flight::{self, FlightGuard, FlightProbe};
use phantom_sim::probe::{FilterProbe, JsonlProbe, KindSet, Probe, ProbeGuard, TeeProbe};
use std::path::{Path, PathBuf};

/// What to observe during one run. The default observes nothing.
#[derive(Clone, Debug, Default)]
pub struct ProbeSpec {
    /// Run a live [`StreamingAnalyzer`] with these targets and this
    /// window width (seconds). The tap sees the unfiltered stream.
    pub analysis: Option<(AnalysisTargets, f64)>,
    /// Write a JSONL event trace here, creating its parent directory.
    pub trace: Option<PathBuf>,
    /// Event kinds kept in the trace.
    pub trace_filter: KindSet,
    /// Omit the manifest line: a resumed run's suffix trace continues a
    /// file that already has one.
    pub trace_headerless: bool,
    /// Arm the panic flight recorder: dump path and ring depth.
    pub flight: Option<(PathBuf, usize)>,
}

/// The installed probes of one run. Dropping it uninstalls them; call
/// [`ProbeStack::finish`] to read the live analysis.
pub struct ProbeStack {
    guard: Option<ProbeGuard>,
    analysis: Option<AnalysisHandle>,
    _flight: Option<FlightGuard>,
}

/// Create `path`'s parent directory if it has one.
pub fn ensure_parent(path: &Path) -> Result<(), String> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display())),
        _ => Ok(()),
    }
}

impl ProbeStack {
    /// Install the probes `spec` asks for on this thread. `manifest`
    /// describes the run; the trace, the analysis report and the flight
    /// dump each carry it re-stamped with their own schema.
    pub fn install(manifest: &Manifest, spec: &ProbeSpec) -> Result<ProbeStack, String> {
        let trace_manifest = manifest.for_schema(TRACE_SCHEMA);
        let mut probes: Vec<Box<dyn Probe>> = Vec::new();
        let analysis = spec.analysis.as_ref().map(|(targets, window)| {
            let analyzer = StreamingAnalyzer::new(&trace_manifest, targets.clone(), *window);
            let (sink, handle) = AnalysisSink::new(analyzer);
            probes.push(Box::new(sink));
            handle
        });
        if let Some(path) = &spec.trace {
            ensure_parent(path)?;
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create trace {}: {e}", path.display()))?;
            let probe = if spec.trace_headerless {
                JsonlProbe::new(file)
            } else {
                JsonlProbe::with_manifest(file, &trace_manifest.to_json())
                    .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?
            };
            probes.push(if spec.trace_filter == KindSet::ALL {
                Box::new(probe)
            } else {
                Box::new(FilterProbe::new(spec.trace_filter, probe))
            });
        }
        let flight = match &spec.flight {
            Some((path, depth)) => {
                ensure_parent(path)?;
                let json = manifest.for_schema(POSTMORTEM_SCHEMA).to_json();
                probes.push(Box::new(FlightProbe));
                Some(flight::arm(path, Some(&json), *depth))
            }
            None => None,
        };
        let guard = match probes.len() {
            0 => None,
            1 => probes.pop().map(ProbeGuard::install),
            _ => Some(ProbeGuard::install(Box::new(
                probes.into_iter().fold(TeeProbe::new(), TeeProbe::and),
            ))),
        };
        Ok(ProbeStack {
            guard,
            analysis,
            _flight: flight,
        })
    }

    /// Uninstall the probes, flushing the trace file, and return the
    /// live analysis report when a tap ran.
    pub fn finish(mut self) -> Option<AnalysisReport> {
        drop(self.guard.take());
        self.analysis.take().and_then(AnalysisHandle::finish)
    }
}
