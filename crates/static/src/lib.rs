//! Whole-program static syscall analysis: the approaches Loupe is
//! compared against, implemented as real call-graph reachability.
//!
//! The paper contrasts Loupe with binary-level and source-level static
//! analysis (Tsai et al. \[63\], the Unikraft analysers \[26, 27\]). Both
//! are *comprehensive but conservative*: they report every syscall that
//! could be reached under any workload, configuration or error path —
//! which is why Fig. 4 shows them 2–5× above what applications actually
//! need.
//!
//! Each app model lowers into a [`ProgramGraph`] (functions, direct and
//! indirect call edges, address-taken sets, per-object linkage, syscall
//! sites); the analyser walks reachability from the entry point at one
//! of four **precision levels**:
//!
//! * **L0** — naive binary analysis: every address-taken function is a
//!   candidate target of every indirect call, and a syscall site whose
//!   number sits in a register expands to the full table;
//! * **L1** — indirect-call candidates pruned by signature class
//!   (arity/type matching à la sysfilter);
//! * **L2** — L1 plus intraprocedural constant propagation, resolving
//!   `syscall(N)` sites whose number is a local literal;
//! * **L3** — source-level analysis: objects nothing references are
//!   dropped from the link (dead libc wrappers disappear), candidates
//!   restricted to linked code.
//!
//! Every attributed syscall carries a [`Witness`]: the shortest
//! entry→site call path that justifies the attribution, re-checkable
//! against the graph with [`verify_witness`]. By construction (see
//! [`ProgramGraph::validate`]) the attributed sets form the containment
//! chain **dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0**.
//!
//! # Examples
//!
//! ```
//! use loupe_apps::registry;
//! use loupe_static::{analyze_graph, Level};
//! use loupe_apps::ProgramGraph;
//!
//! let app = registry::find("redis").unwrap();
//! let graph = ProgramGraph::lower(app.as_ref());
//! let l0 = analyze_graph(&graph, Level::L0);
//! let l3 = analyze_graph(&graph, Level::L3);
//! assert!(l3.syscalls.is_subset(&l0.syscalls));
//! ```

use std::collections::VecDeque;

use loupe_apps::program::{CallEdge, FuncId, NumberOperand, ProgramGraph};
use loupe_apps::AppModel;
use loupe_syscalls::{Sysno, SysnoSet};
use serde::{Deserialize, Serialize, Value};

/// The result of a static analysis pass.
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct StaticReport {
    /// Application name.
    pub app: String,
    /// Analysis level that produced this report.
    pub level: Level,
    /// Every syscall the analyser attributes to the application.
    pub syscalls: SysnoSet,
    /// One witness per attributed syscall: the shortest entry→site call
    /// path justifying it. Empty in stored reports (the database keeps
    /// the attributed sets only; witnesses are re-derived from the
    /// graph when shown), and then left out of the serialised form.
    #[serde(default)]
    pub witnesses: Vec<Witness>,
}

// By hand: the vendored derive takes no field attribute but
// `#[serde(default)]`, so it cannot leave an empty `witnesses` out.
impl Serialize for StaticReport {
    fn to_value(&self) -> Value {
        let field = |name: &str, value: Value| (Value::Str(name.to_owned()), value);
        let mut fields = vec![
            field("app", self.app.to_value()),
            field("level", self.level.to_value()),
            field("syscalls", self.syscalls.to_value()),
        ];
        if !self.witnesses.is_empty() {
            fields.push(field("witnesses", self.witnesses.to_value()));
        }
        Value::Map(fields)
    }
}

impl StaticReport {
    /// The witness for `sysno`, if attributed.
    pub fn witness(&self, sysno: Sysno) -> Option<&Witness> {
        self.witnesses.iter().find(|w| w.sysno == sysno)
    }
}

/// Analysis precision level, naive binary (L0) to source-aware (L3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Naive binary analysis: all address-taken functions are indirect
    /// targets, register-number syscall sites expand to the full table.
    L0,
    /// Indirect-call candidates pruned by signature class.
    L1,
    /// L1 + intraprocedural constant propagation resolves `syscall(N)`.
    L2,
    /// Source-level: dead-linked objects excluded from the walk.
    L3,
}

impl Level {
    /// Every level, coarsest first (the precision ladder).
    pub const ALL: [Level; 4] = [Level::L0, Level::L1, Level::L2, Level::L3];

    /// Stable lowercase label (db namespace keys, report tables, CLI).
    pub fn label(self) -> &'static str {
        match self {
            Level::L0 => "l0",
            Level::L1 => "l1",
            Level::L2 => "l2",
            Level::L3 => "l3",
        }
    }

    /// Human-readable title for docs and CLI output.
    pub fn title(self) -> &'static str {
        match self {
            Level::L0 => "L0 (naive binary)",
            Level::L1 => "L1 (signature-pruned)",
            Level::L2 => "L2 (constant propagation)",
            Level::L3 => "L3 (source level)",
        }
    }

    /// What the level adds over the previous rung, for docs.
    pub fn description(self) -> &'static str {
        match self {
            Level::L0 => {
                "every address-taken function targets every indirect call; \
                 register-number syscall sites expand to the full table"
            }
            Level::L1 => "indirect-call candidates pruned by signature class",
            Level::L2 => "intraprocedural constant propagation resolves syscall(N) sites",
            Level::L3 => "dead-linked objects dropped; only source-linked code walked",
        }
    }

    /// Parses a CLI/user spelling: `l0`..`l3`, bare digits, or the
    /// `binary`/`source` names of the ladder's two ends.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "l0" | "0" | "binary" => Some(Level::L0),
            "l1" | "1" => Some(Level::L1),
            "l2" | "2" => Some(Level::L2),
            "l3" | "3" | "source" => Some(Level::L3),
            _ => None,
        }
    }

    /// The analyser for this level, as a trait object.
    pub fn analyzer(self) -> Box<dyn StaticAnalyzer + Send + Sync> {
        Box::new(GraphAnalyzer::new(self))
    }
}

/// How a witness step was reached from its predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// The first step: the program entry point.
    Entry,
    /// Reached through a direct call.
    Direct,
    /// Reached as a candidate target of an indirect call.
    Indirect,
}

/// One function on a witness path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WitnessStep {
    /// Function name (graph names are unique).
    pub function: String,
    /// How the walk arrived here.
    pub edge: EdgeKind,
}

/// The justification for one attributed syscall: the shortest call path
/// from the entry point to a syscall site whose expansion (at the
/// report's level) contains the syscall.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Witness {
    /// The attributed syscall.
    pub sysno: Sysno,
    /// Entry-to-site path; the first step is always the entry point.
    pub path: Vec<WitnessStep>,
    /// Index of the justifying syscall site in the final function.
    pub site: usize,
}

impl Witness {
    /// Renders the path as `a → b → c [site k]` for CLI/doc output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, step) in self.path.iter().enumerate() {
            if i > 0 {
                out.push_str(match step.edge {
                    EdgeKind::Entry => " → ",
                    EdgeKind::Direct => " → ",
                    EdgeKind::Indirect => " ⇢ ", // over-approximated hop
                });
            }
            out.push_str(&step.function);
        }
        out.push_str(&format!(" [site {}]", self.site));
        out
    }
}

/// Whether `site`'s expansion at `level` contains `sysno`.
fn site_covers(site: NumberOperand, level: Level, sysno: Sysno) -> bool {
    match site {
        NumberOperand::Const(s) => s == sysno,
        NumberOperand::Register { resolvable } => match level {
            // Naive levels cannot read the register: the whole table.
            Level::L0 | Level::L1 => true,
            // Constant propagation resolves the literal when present.
            Level::L2 | Level::L3 => resolvable.is_none_or(|n| n == sysno),
        },
    }
}

/// Whether `target` is a candidate of an indirect call with signature
/// class `sig` at `level`.
fn indirect_candidate(graph: &ProgramGraph, level: Level, sig: u8, target: FuncId) -> bool {
    let f = &graph.functions[target];
    if !f.address_taken {
        return false;
    }
    match level {
        Level::L0 => true,
        Level::L1 | Level::L2 => f.sig == sig,
        Level::L3 => f.sig == sig && f.source_linked,
    }
}

/// Whether a direct call edge into `target` is walked at `level`
/// (source analysis never enters dead-linked objects).
fn direct_walkable(graph: &ProgramGraph, level: Level, target: FuncId) -> bool {
    level != Level::L3 || graph.functions[target].source_linked
}

/// Runs graph reachability over `graph` at `level`, attributing every
/// syscall some reachable site can expand to, with one shortest-path
/// [`Witness`] per attributed syscall (breadth-first, so paths are
/// minimal in call-edge count; ties broken by deterministic traversal
/// order).
pub fn analyze_graph(graph: &ProgramGraph, level: Level) -> StaticReport {
    let n = graph.functions.len();
    // Address-taken population, bucketed for the sig-pruning levels.
    let candidates: Vec<FuncId> = (0..n)
        .filter(|&i| graph.functions[i].address_taken)
        .collect();

    let mut prev: Vec<Option<(FuncId, EdgeKind)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[graph.entry] = true;
    queue.push_back(graph.entry);

    let mut syscalls = SysnoSet::new();
    let mut witnesses: Vec<Witness> = Vec::new();

    while let Some(f) = queue.pop_front() {
        // Attribute this function's sites.
        for (site_idx, site) in graph.functions[f].sites.iter().enumerate() {
            let expand = |syscalls: &mut SysnoSet, witnesses: &mut Vec<Witness>, s: Sysno| {
                if syscalls.insert(s) {
                    witnesses.push(Witness {
                        sysno: s,
                        path: path_to(graph, &prev, f),
                        site: site_idx,
                    });
                }
            };
            match site.number {
                NumberOperand::Const(s) => expand(&mut syscalls, &mut witnesses, s),
                NumberOperand::Register { resolvable } => match (level, resolvable) {
                    (Level::L2 | Level::L3, Some(s)) => expand(&mut syscalls, &mut witnesses, s),
                    _ => {
                        for s in Sysno::all() {
                            expand(&mut syscalls, &mut witnesses, s);
                        }
                    }
                },
            }
        }
        // Walk outgoing edges.
        for edge in &graph.functions[f].calls {
            match *edge {
                CallEdge::Direct { target } => {
                    if direct_walkable(graph, level, target) && !seen[target] {
                        seen[target] = true;
                        prev[target] = Some((f, EdgeKind::Direct));
                        queue.push_back(target);
                    }
                }
                CallEdge::Indirect { sig, .. } => {
                    for &t in &candidates {
                        if indirect_candidate(graph, level, sig, t) && !seen[t] {
                            seen[t] = true;
                            prev[t] = Some((f, EdgeKind::Indirect));
                            queue.push_back(t);
                        }
                    }
                }
            }
        }
    }

    witnesses.sort_by_key(|w| w.sysno);
    StaticReport {
        app: graph.app.clone(),
        level,
        syscalls,
        witnesses,
    }
}

/// Reconstructs the BFS path from the entry to `f`.
fn path_to(
    graph: &ProgramGraph,
    prev: &[Option<(FuncId, EdgeKind)>],
    f: FuncId,
) -> Vec<WitnessStep> {
    let mut steps = Vec::new();
    let mut cur = f;
    loop {
        match prev[cur] {
            Some((p, kind)) => {
                steps.push(WitnessStep {
                    function: graph.functions[cur].name.clone(),
                    edge: kind,
                });
                cur = p;
            }
            None => {
                steps.push(WitnessStep {
                    function: graph.functions[cur].name.clone(),
                    edge: EdgeKind::Entry,
                });
                break;
            }
        }
    }
    steps.reverse();
    steps
}

/// Re-walks a witness against the graph at `level`: every step must be
/// a real edge the level would take, and the final site must expand to
/// the witnessed syscall.
///
/// # Errors
///
/// A description of the first step that does not re-walk.
pub fn verify_witness(graph: &ProgramGraph, level: Level, w: &Witness) -> Result<(), String> {
    if w.path.is_empty() {
        return Err("empty witness path".into());
    }
    let resolve = |name: &str| -> Result<FuncId, String> {
        graph
            .find(name)
            .ok_or_else(|| format!("function `{name}` not in graph"))
    };
    let first = resolve(&w.path[0].function)?;
    if first != graph.entry {
        return Err(format!(
            "path starts at `{}`, not the entry point",
            w.path[0].function
        ));
    }
    if w.path[0].edge != EdgeKind::Entry {
        return Err("first step must be an Entry edge".into());
    }
    let mut at = first;
    for step in &w.path[1..] {
        let next = resolve(&step.function)?;
        let ok = match step.edge {
            EdgeKind::Entry => false,
            EdgeKind::Direct => {
                graph.functions[at]
                    .calls
                    .contains(&CallEdge::Direct { target: next })
                    && direct_walkable(graph, level, next)
            }
            EdgeKind::Indirect => graph.functions[at].calls.iter().any(|e| {
                matches!(*e, CallEdge::Indirect { sig, .. }
                    if indirect_candidate(graph, level, sig, next))
            }),
        };
        if !ok {
            return Err(format!(
                "no {:?} edge `{}` → `{}` at {}",
                step.edge,
                graph.functions[at].name,
                step.function,
                level.title()
            ));
        }
        at = next;
    }
    let sites = &graph.functions[at].sites;
    let site = sites
        .get(w.site)
        .ok_or_else(|| format!("`{}` has no site {}", graph.functions[at].name, w.site))?;
    if !site_covers(site.number, level, w.sysno) {
        return Err(format!(
            "site {} of `{}` cannot expand to `{}` at {}",
            w.site,
            graph.functions[at].name,
            w.sysno.name(),
            level.title()
        ));
    }
    Ok(())
}

/// Common interface of the per-level analysers.
pub trait StaticAnalyzer {
    /// Analyses one application (lowering it to its program graph).
    fn analyze(&self, app: &dyn AppModel) -> StaticReport;

    /// The analysis level.
    fn level(&self) -> Level;
}

/// The graph-reachability analyser at a chosen precision level.
#[derive(Debug, Clone, Copy)]
pub struct GraphAnalyzer {
    level: Level,
}

impl GraphAnalyzer {
    /// Creates the analyser for `level`.
    pub fn new(level: Level) -> GraphAnalyzer {
        GraphAnalyzer { level }
    }
}

impl StaticAnalyzer for GraphAnalyzer {
    fn analyze(&self, app: &dyn AppModel) -> StaticReport {
        analyze_graph(&ProgramGraph::lower(app), self.level)
    }

    fn level(&self) -> Level {
        self.level
    }
}

/// API importance under static analysis: for each syscall, the fraction
/// of `reports` that contain it (the metric of Tsai et al. reused in
/// §5.1).
///
/// Delegates to [`loupe_plan::importance_fractions`] — the same
/// (NaN-safe) implementation that ranks the dynamic curves — borrowing
/// each report's set rather than cloning it.
pub fn api_importance(reports: &[StaticReport]) -> Vec<(Sysno, f64)> {
    loupe_plan::importance_fractions(reports.iter().map(|r| &r.syscalls))
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_apps::registry;

    #[test]
    fn ladder_is_monotone_for_every_detailed_app() {
        for app in registry::detailed() {
            let graph = ProgramGraph::lower(app.as_ref());
            let reports: Vec<_> = Level::ALL
                .iter()
                .map(|&l| analyze_graph(&graph, l))
                .collect();
            for pair in reports.windows(2) {
                assert!(
                    pair[1].syscalls.is_subset(&pair[0].syscalls),
                    "{}: {} ⊄ {}",
                    app.name(),
                    pair[1].level.label(),
                    pair[0].level.label()
                );
            }
            assert!(
                graph.dynamic_reachable().is_subset(&reports[3].syscalls),
                "{}: dynamic ⊄ L3",
                app.name()
            );
            assert!(
                reports[0].syscalls.len() > 90,
                "{}: naive view too small ({})",
                app.name(),
                reports[0].syscalls.len()
            );
            // Signature pruning must actually prune something.
            assert!(
                reports[1].syscalls.len() < reports[0].syscalls.len(),
                "{}: L1 did not prune",
                app.name()
            );
            // Source level drops the dead libc objects.
            assert!(
                reports[3].syscalls.len() < reports[2].syscalls.len(),
                "{}: L3 did not drop dead objects",
                app.name()
            );
        }
    }

    #[test]
    fn every_attributed_syscall_has_a_verifying_witness() {
        // The acceptance anchor: for a detailed app, every attributed
        // syscall at every level carries a witness that re-walks.
        let app = registry::find("redis").unwrap();
        let graph = ProgramGraph::lower(app.as_ref());
        for &level in &Level::ALL {
            let report = analyze_graph(&graph, level);
            assert_eq!(
                report.witnesses.len(),
                report.syscalls.len(),
                "one witness per attributed syscall at {}",
                level.label()
            );
            for w in &report.witnesses {
                assert!(report.syscalls.contains(w.sysno));
                verify_witness(&graph, level, w).unwrap_or_else(|e| {
                    panic!("{} witness for {}: {e}", level.label(), w.sysno.name())
                });
            }
        }
    }

    #[test]
    fn witnesses_are_shortest_paths_and_render() {
        let app = registry::find("weborf").unwrap();
        let graph = ProgramGraph::lower(app.as_ref());
        let report = analyze_graph(&graph, Level::L3);
        // Init syscalls sit one hop from the entry.
        let w = report
            .witness(loupe_syscalls::Sysno::execve)
            .expect("execve witnessed");
        assert_eq!(w.path.len(), 2, "{:?}", w);
        assert_eq!(w.path[0].function, "crt::_start");
        assert!(w.render().contains("crt::libc_start_main"));
        // A corrupted witness must not verify.
        let mut bad = w.clone();
        bad.path[1].function = "app::main".into();
        assert!(verify_witness(&graph, Level::L3, &bad).is_err());
    }

    #[test]
    fn constant_propagation_resolves_raw_sites() {
        // A fleet app with raw syscall(N) sites: the naive levels expand
        // them to the full table, L2 resolves them.
        let app = registry::dataset()
            .into_iter()
            .find(|a| !a.code().raw_syscalls.is_empty())
            .expect("a fleet app with raw sites");
        let graph = ProgramGraph::lower(app.as_ref());
        let l1 = analyze_graph(&graph, Level::L1);
        let l2 = analyze_graph(&graph, Level::L2);
        assert_eq!(
            l1.syscalls.len(),
            Sysno::all().count(),
            "{}: unknown register expands to the whole table",
            app.name()
        );
        assert!(l2.syscalls.len() < l1.syscalls.len() / 2, "{}", app.name());
        for s in app.code().raw_syscalls.iter() {
            assert!(l2.syscalls.contains(s));
            let w = l2.witness(s).expect("resolved site witnessed");
            verify_witness(&graph, Level::L2, w).unwrap();
        }
    }

    #[test]
    fn cli_spellings_parse_to_ladder_levels() {
        assert_eq!(Level::parse("binary"), Some(Level::L0));
        assert_eq!(Level::parse("source"), Some(Level::L3));
        assert_eq!(Level::parse("L2"), Some(Level::L2));
        assert_eq!(Level::parse("1"), Some(Level::L1));
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn source_view_is_still_an_overestimate_of_behaviour() {
        // The source level includes error-path syscalls the workloads
        // never execute; spot-check one known dead branch.
        let app = registry::find("redis").unwrap();
        let s = GraphAnalyzer::new(Level::L3).analyze(app.as_ref());
        assert!(s.syscalls.contains(loupe_syscalls::Sysno::mremap));
    }

    #[test]
    fn importance_is_sorted_descending() {
        let bin = GraphAnalyzer::new(Level::L0);
        let reports: Vec<_> = registry::detailed()
            .iter()
            .map(|a| bin.analyze(a.as_ref()))
            .collect();
        let imp = api_importance(&reports);
        assert!(imp.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(imp[0].1 >= 0.99, "top syscalls are in every binary");
    }
}
