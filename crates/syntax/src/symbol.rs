//! Interned identifiers.
//!
//! A [`Symbol`] is a cheap, copyable handle to an interned string. The
//! interner is a process-wide table; interned strings are leaked so that
//! [`Symbol::as_str`] can hand out `&'static str` without locking on every
//! access. This is the usual trade-off for compiler workloads, where the
//! set of distinct identifiers is small and lives for the whole run.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned identifier.
///
/// Two symbols are equal iff they were interned from equal strings.
///
/// # Example
///
/// ```
/// use rml_syntax::Symbol;
/// let a = Symbol::intern("x");
/// let b = Symbol::intern("x");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "x");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct SymbolTable {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static Mutex<SymbolTable> {
    static INTERNER: OnceLock<Mutex<SymbolTable>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(SymbolTable {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `s`, returning its canonical symbol.
    pub fn intern(s: &str) -> Symbol {
        let mut int = interner().lock().unwrap();
        if let Some(&id) = int.map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = int.strings.len() as u32;
        int.map.insert(leaked, id);
        int.strings.push(leaked);
        Symbol(id)
    }

    /// Returns the interned string.
    pub fn as_str(self) -> &'static str {
        interner().lock().unwrap().strings[self.0 as usize]
    }

    /// The symbol's interner index (stable within a process). Used by the
    /// runtime to store symbols in raw heap words.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a symbol from [`Symbol::index`].
    ///
    /// # Panics
    ///
    /// Panics (on later use) if the index was not produced by `index`.
    pub fn from_index(i: u32) -> Symbol {
        Symbol(i)
    }

    /// The interned string for index `i`, or `None` if `i` was never
    /// produced by [`Symbol::index`]. The non-panicking form used when
    /// the index comes from untrusted data (raw heap words, decoded IR).
    pub fn lookup_index(i: u32) -> Option<&'static str> {
        interner().lock().ok()?.strings.get(i as usize).copied()
    }

    /// Creates a fresh symbol that is guaranteed not to clash with any
    /// source identifier (the name contains a `#`, which the lexer rejects
    /// in identifiers).
    pub fn fresh(base: &str) -> Symbol {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Symbol::intern(&format!("{base}#{n}"))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("foo");
        let b = Symbol::intern("foo");
        let c = Symbol::intern("bar");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "foo");
        assert_eq!(c.as_str(), "bar");
    }

    #[test]
    fn fresh_symbols_are_distinct() {
        let a = Symbol::fresh("tmp");
        let b = Symbol::fresh("tmp");
        assert_ne!(a, b);
        assert!(a.as_str().starts_with("tmp#"));
    }

    #[test]
    fn display_matches_str() {
        let s = Symbol::intern("display");
        assert_eq!(format!("{s}"), "display");
        assert_eq!(format!("{s:?}"), "`display`");
    }
}
