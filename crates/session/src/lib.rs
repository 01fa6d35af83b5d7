//! `rml-session` — shared compiler-session services.
//!
//! The crates of the pipeline (lexer → parser → HM typing → region
//! inference → checking → benchmarks) all speak two common languages
//! defined here:
//!
//! * **spans** ([`Span`], [`SourceMap`]) — byte ranges into the source,
//!   carried by tokens and AST nodes and propagated into typed and
//!   region-annotated programs via provenance side-tables;
//! * **diagnostics** ([`Diagnostic`], [`Severity`], [`Label`]) — every
//!   error path produces a structured diagnostic with a stable code and a
//!   primary span, rendered with a caret underline by
//!   [`Diagnostic::render`].
//!
//! A [`Session`] bundles a program's source map with the diagnostic sink
//! and is constructed once per compilation by the root facade.
//!
//! Two further cross-cutting services live here because every layer needs
//! them: the [`json`] serializer (the one authority for JSON emission —
//! benchmarks, traces, metrics) and the [`trace`] facade (spans, instant
//! events, counters; zero-cost when no sink is installed).

mod diag;
pub mod json;
mod span;
pub mod trace;

pub use diag::{Diagnostic, Label, Severity};
pub use json::Json;
pub use span::{SourceMap, Span};

/// One compilation's shared state: the source (with its line table), the
/// buffer's display name, and any diagnostics accumulated along the way.
#[derive(Debug)]
pub struct Session {
    /// The source buffer and line table.
    pub source_map: SourceMap,
    /// Display name for rendered diagnostics (`file.rml`, `<expr>`, …).
    pub name: String,
    /// Diagnostics emitted so far.
    pub diagnostics: Vec<Diagnostic>,
}

impl Session {
    /// Creates a session for one source buffer.
    pub fn new(name: impl Into<String>, src: &str) -> Session {
        Session {
            source_map: SourceMap::new(src),
            name: name.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Records a diagnostic.
    pub fn emit(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Renders one diagnostic against this session's source.
    pub fn render(&self, d: &Diagnostic) -> String {
        d.render(&self.source_map, &self.name)
    }

    /// Renders every recorded diagnostic.
    pub fn render_all(&self) -> String {
        self.diagnostics.iter().map(|d| self.render(d)).collect()
    }

    /// `true` if any recorded diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_accumulates_and_renders() {
        let mut s = Session::new("<t>", "fun main () = x\n");
        assert!(!s.has_errors());
        s.emit(Diagnostic::error("E0002", "unbound variable `x`").with_primary(Span::new(14, 15)));
        assert!(s.has_errors());
        let r = s.render_all();
        assert!(r.contains("unbound variable `x`"), "{r}");
        assert!(r.contains("--> <t>:1:15"), "{r}");
    }
}
