//! Rendering diagnostics: human-readable lines and machine-readable JSON
//! lines, both deterministic (diagnostics are sorted before rendering).

use std::fmt::Write as _;

use rfh_testkit::json::Json;

use crate::diag::Diagnostic;

/// Renders one diagnostic as a human-readable line:
/// `error[RFH-L001] BB0#2: r1 may be read ...`.
pub fn human_line(kernel_name: &str, d: &Diagnostic) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{}[{}] {}: BB{}",
        d.severity().as_str(),
        d.code.as_str(),
        kernel_name,
        d.block.index()
    );
    if let Some(i) = d.instr {
        let _ = write!(s, "#{i}");
    }
    let _ = write!(s, ": {}", d.message);
    s
}

/// Renders one diagnostic as a JSON object on a single line, with the
/// stable field order `kernel, code, severity, block, instr, message`.
pub fn json_line(kernel_name: &str, d: &Diagnostic) -> String {
    let instr = d.instr.map_or(Json::Null, |i| Json::u64(i as u64));
    Json::Obj(vec![
        ("kernel".into(), Json::str(kernel_name)),
        ("code".into(), Json::str(d.code.as_str())),
        ("severity".into(), Json::str(d.severity().as_str())),
        ("block".into(), Json::u64(d.block.index() as u64)),
        ("instr".into(), instr),
        ("message".into(), Json::str(d.message.as_str())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;
    use rfh_isa::{BlockId, InstrRef};

    fn sample() -> Diagnostic {
        Diagnostic::at(
            Code::UseBeforeDef,
            InstrRef {
                block: BlockId::new(1),
                index: 2,
            },
            "r3 may be read before it is defined".to_string(),
        )
    }

    #[test]
    fn human_line_format() {
        let line = human_line("k", &sample());
        assert_eq!(
            line,
            "error[RFH-L001] k: BB1#2: r3 may be read before it is defined"
        );
    }

    #[test]
    fn json_line_format() {
        let line = json_line("k", &sample());
        assert_eq!(
            line,
            "{\"kernel\":\"k\",\"code\":\"RFH-L001\",\"severity\":\"error\",\"block\":1,\
             \"instr\":2,\"message\":\"r3 may be read before it is defined\"}"
        );
    }

    #[test]
    fn json_escapes_quotes_and_controls() {
        let message = "a\"b\\c\nd\u{1}".to_string();
        let d = Diagnostic::at_block(Code::UnreachableBlock, BlockId::new(0), message);
        let line = json_line("k", &d);
        assert!(
            line.ends_with(",\"message\":\"a\\\"b\\\\c\\nd\\u0001\"}"),
            "{line}"
        );
    }

    #[test]
    fn block_level_diagnostic_has_null_instr() {
        let d = Diagnostic::at_block(Code::UnreachableBlock, BlockId::new(4), "dead".to_string());
        assert!(json_line("k", &d).contains("\"instr\":null"));
        assert_eq!(human_line("k", &d), "warning[RFH-L002] k: BB4: dead");
    }
}
