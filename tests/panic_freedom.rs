//! Panic-freedom fuzzing for the input-facing surfaces: arbitrary bytes
//! into the lexer/parser and mutated RMLI bytes into the IR decoder must
//! produce structured errors (`ParseError`, `IrError`), never a panic,
//! abort, or runaway allocation. A mutant that still decodes is run, and
//! the machine must reject or execute it with a `RunError`, never panic.
//!
//! The generators are deterministic (see the proptest shim), so a
//! failure here reproduces exactly on re-run.

use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Token soup vocabulary: every keyword and operator the lexer knows,
/// plus a few identifiers and literals, so random sequences reach deep
/// into the parser instead of dying at the first unknown byte.
const TOKENS: &[&str] = &[
    "fun", "fn", "let", "val", "in", "end", "if", "then", "else", "case", "of", "ref", "raise",
    "handle", "andalso", "orelse", "div", "mod", "nil", "true", "false", "=>", "->", "=", "(", ")",
    "[", "]", ",", ";", "::", ":=", ":", "|", "+", "-", "*", "^", "<", ">", "<=", ">=", "!", "#1",
    "#2", "_", "x", "f", "g", "main", "0", "1", "42", "\"s\"", "'a", "int", "string", "bool",
    "unit", "list",
];

/// A small xorshift64* for byte mutations (keeps the mutation schedule
/// independent of the generator that picked the seed).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Decodes an image and, if that succeeds, runs it with a small step
/// budget: the machine must execute or reject it without panicking.
fn run_if_decodes(bytes: &[u8]) {
    if let Ok(prog) = rml_core::ir::decode_program(bytes) {
        let mut opts = rml_eval::RunOpts::new(prog.global);
        opts.fuel = 20_000;
        let _ = rml_eval::run(&prog.term, &opts);
    }
}

/// A real, well-formed RMLI image to mutate.
fn base_ir() -> &'static [u8] {
    static BASE: OnceLock<Vec<u8>> = OnceLock::new();
    BASE.get_or_init(|| {
        let c = rml::compile(
            "fun build n = if n = 0 then nil else (n, itos n) :: build (n - 1) \
             fun main () = case build 3 of nil => 0 | h :: t => #1 h",
            rml::Strategy::Rg,
        )
        .expect("compile fuzz base program");
        rml::emit_ir(&c)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary byte soup through the whole front end.
    #[test]
    fn lexer_and_parser_survive_random_bytes(bytes in vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let _ = rml_syntax::lexer::lex(&src);
        let _ = rml_syntax::parse_program(&src);
    }

    /// Well-lexed but arbitrarily ordered tokens: stresses every parser
    /// production past the lexer.
    #[test]
    fn parser_survives_token_soup(picks in vec(0usize..TOKENS.len(), 0..192)) {
        let src = picks.iter().map(|&i| TOKENS[i]).collect::<Vec<_>>().join(" ");
        let _ = rml_syntax::parse_program(&src);
        let _ = rml_syntax::parse_expr(&src);
    }

    /// Mutated RMLI images: flip a handful of bytes in a real image and
    /// optionally truncate. The decoder must reject (or accept a
    /// coincidentally valid image) without panicking and without
    /// trusting embedded counts (`IrError::Truncated` for counts that
    /// exceed the input). Each seed also nudges one byte of the image by
    /// a small amount, which usually still decodes, into a program that is
    /// ill-formed in some way (an unbound name, another literal, tag or
    /// region). Every mutant that decodes is run.
    #[test]
    fn ir_decoder_survives_mutations(seed in any::<u64>()) {
        let base = base_ir();
        let mut bytes = base.to_vec();
        let mut st = seed | 1;
        let flips = (xorshift(&mut st) % 16 + 1) as usize;
        for _ in 0..flips {
            let pos = (xorshift(&mut st) as usize) % bytes.len();
            bytes[pos] ^= (xorshift(&mut st) & 0xFF) as u8;
        }
        if xorshift(&mut st).is_multiple_of(4) {
            bytes.truncate((xorshift(&mut st) as usize) % (bytes.len() + 1));
        }
        run_if_decodes(&bytes);
        let mut nudged = base.to_vec();
        let pos = (xorshift(&mut st) as usize) % nudged.len();
        nudged[pos] = nudged[pos].wrapping_add((xorshift(&mut st) % 3 + 1) as u8);
        run_if_decodes(&nudged);
    }

    /// Pure byte soup (no valid prefix at all) through the decoder.
    #[test]
    fn ir_decoder_survives_random_bytes(bytes in vec(any::<u8>(), 0..256)) {
        let _ = rml_core::ir::decode_program(&bytes);
    }
}

/// Unbounded nesting must be rejected by the parser's depth limit — a
/// structured `ParseError`, not a stack overflow (which no harness can
/// catch).
#[test]
fn deep_nesting_is_an_error_not_a_crash() {
    let src = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
    let err = rml_syntax::parse_expr(&src).unwrap_err();
    assert!(err.msg.contains("nesting too deep"), "{}", err.msg);
    let tysrc = format!(
        "fun f (x : {}int{}) = x",
        "(".repeat(50_000),
        ")".repeat(50_000)
    );
    assert!(rml_syntax::parse_program(&tysrc).is_err());
}

/// A decodable image whose term projects field 0 of a pair used to
/// underflow the machine's field index. Loading it must fail cleanly.
#[test]
fn ir_with_projection_zero_is_rejected_before_running() {
    use rml_core::terms::Term;
    let global = rml_core::vars::RegVar::fresh();
    let pair = Term::Pair(Box::new(Term::Int(1)), Box::new(Term::Int(2)), global);
    let bytes = rml_core::ir::encode_program(&rml_core::ir::IrProgram {
        term: Term::Sel(0, Box::new(pair)),
        exns: Default::default(),
        global,
        schemes: Vec::new(),
    });
    let c = rml::load_ir(&bytes, rml::Strategy::Rg).expect("the image decodes");
    let err = rml::execute(&c, &rml::ExecOpts::default()).unwrap_err();
    assert!(
        matches!(&err, rml_eval::RunError::Stuck(m) if m.contains("projection #0")),
        "{err}"
    );
}
