//! Pretty printer producing canonical SNAP surface syntax.
//!
//! The output is fully parenthesized so that `parse(pretty(p))` recovers the
//! original AST structurally (a property checked by the round-trip tests in
//! `parser.rs`).

use crate::ast::{Expr, Policy, Pred};
use crate::value::Value;
use std::fmt::Write;

/// Render a value in surface syntax.
pub fn value_to_string(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Bool(true) => "True".to_string(),
        Value::Bool(false) => "False".to_string(),
        Value::Ip(ip) => ip.to_string(),
        Value::Prefix(p) => p.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Symbol(s) => s.to_string(),
        Value::Tuple(vs) => {
            let inner: Vec<String> = vs.iter().map(value_to_string).collect();
            format!("({})", inner.join(", "))
        }
    }
}

/// Render an expression in surface syntax.
pub fn expr_to_string(e: &Expr) -> String {
    match e {
        Expr::Value(v) => value_to_string(v),
        Expr::Field(f) => f.name().to_string(),
        Expr::Tuple(es) => {
            let inner: Vec<String> = es.iter().map(expr_to_string).collect();
            format!("({})", inner.join(", "))
        }
    }
}

fn state_ref(var: &crate::ast::StateVar, index: &[Expr]) -> String {
    let mut s = var.name().to_string();
    for e in index {
        let _ = write!(s, "[{}]", expr_to_string(e));
    }
    s
}

/// Render a predicate in surface syntax.
pub fn pred_to_string(p: &Pred) -> String {
    match p {
        Pred::Id => "id".to_string(),
        Pred::Drop => "drop".to_string(),
        Pred::Test(f, v) => format!("{} = {}", f.name(), value_to_string(v)),
        Pred::Not(x) => format!("~({})", pred_to_string(x)),
        Pred::Or(x, y) => format!("({} | {})", pred_to_string(x), pred_to_string(y)),
        Pred::And(x, y) => format!("({} & {})", pred_to_string(x), pred_to_string(y)),
        Pred::StateTest { var, index, value } => {
            format!("{} = {}", state_ref(var, index), expr_to_string(value))
        }
    }
}

/// Render a policy in surface syntax.
pub fn policy_to_string(p: &Policy) -> String {
    match p {
        Policy::Filter(x) => pred_to_string(x),
        Policy::Modify(f, v) => format!("{} <- {}", f.name(), value_to_string(v)),
        Policy::Par(a, b) => format!("({} + {})", policy_to_string(a), policy_to_string(b)),
        Policy::Seq(a, b) => format!("({}; {})", policy_to_string(a), policy_to_string(b)),
        Policy::StateSet { var, index, value } => {
            format!("{} <- {}", state_ref(var, index), expr_to_string(value))
        }
        Policy::StateIncr { var, index } => format!("{}++", state_ref(var, index)),
        Policy::StateDecr { var, index } => format!("{}--", state_ref(var, index)),
        Policy::If(a, p, q) => format!(
            "(if {} then {} else {})",
            pred_to_string(a),
            policy_to_string(p),
            policy_to_string(q)
        ),
        Policy::Atomic(p) => format!("atomic({})", policy_to_string(p)),
    }
}

/// Render a policy as an indented multi-line listing (for documentation and
/// example output; not intended to be re-parsed).
pub fn policy_to_pretty_lines(p: &Policy) -> String {
    let mut out = String::new();
    render_lines(p, 0, &mut out);
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_lines(p: &Policy, depth: usize, out: &mut String) {
    match p {
        Policy::Seq(a, b) => {
            render_lines(a, depth, out);
            let last = out.trim_end_matches('\n').len();
            out.truncate(last);
            out.push_str(";\n");
            render_lines(b, depth, out);
        }
        Policy::Par(a, b) => {
            indent(out, depth);
            out.push_str("(\n");
            render_lines(a, depth + 1, out);
            indent(out, depth);
            out.push_str("+\n");
            render_lines(b, depth + 1, out);
            indent(out, depth);
            out.push_str(")\n");
        }
        Policy::If(a, t, e) => {
            indent(out, depth);
            let _ = writeln!(out, "if {} then", pred_to_string(a));
            render_lines(t, depth + 1, out);
            indent(out, depth);
            out.push_str("else\n");
            render_lines(e, depth + 1, out);
        }
        Policy::Atomic(inner) => {
            indent(out, depth);
            out.push_str("atomic(\n");
            render_lines(inner, depth + 1, out);
            indent(out, depth);
            out.push_str(")\n");
        }
        other => {
            indent(out, depth);
            let _ = writeln!(out, "{}", policy_to_string(other));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::value::Field;

    #[test]
    fn simple_forms() {
        assert_eq!(policy_to_string(&id()), "id");
        assert_eq!(policy_to_string(&drop()), "drop");
        assert_eq!(
            policy_to_string(&modify(Field::OutPort, Value::Int(6))),
            "outport <- 6"
        );
        assert_eq!(
            policy_to_string(&state_incr("count", vec![field(Field::InPort)])),
            "count[inport]++"
        );
        assert_eq!(
            pred_to_string(&test_prefix(Field::DstIp, 10, 0, 6, 0, 24)),
            "dstip = 10.0.6.0/24"
        );
    }

    #[test]
    fn composite_forms() {
        let p = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_set("seen", vec![field(Field::DstIp)], Value::Bool(true)),
            id(),
        );
        assert_eq!(
            policy_to_string(&p),
            "(if srcport = 53 then seen[dstip] <- True else id)"
        );
        let q = id().seq(drop()).par(id());
        assert_eq!(policy_to_string(&q), "((id; drop) + id)");
    }

    #[test]
    fn multiline_rendering_mentions_all_parts() {
        let p = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_incr("c", vec![field(Field::DstIp)]).seq(id()),
            drop(),
        );
        let text = policy_to_pretty_lines(&p);
        assert!(text.contains("if srcport = 53 then"));
        assert!(text.contains("c[dstip]++"));
        assert!(text.contains("else"));
        assert!(text.contains("drop"));
    }
}
