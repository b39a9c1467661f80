//! A recursive-descent parser for SNAP surface syntax.
//!
//! The grammar follows Figure 4 of the paper plus the notational conventions
//! used by its examples (Figure 1, the `assign-egress` and `assumption`
//! policies and the Appendix F listings):
//!
//! ```text
//! policy  := seq ('+' seq)*
//! seq     := disj (';' disj)*
//! disj    := conj ('|' conj)*          -- predicate-only
//! conj    := unary ('&' unary)*        -- predicate-only
//! unary   := ('~' | '!' | 'not') unary | atom
//! atom    := 'id' | 'drop'
//!          | '(' policy ')'
//!          | 'atomic' '(' policy ')'
//!          | 'if' policy 'then' seq 'else' seq
//!          | field '=' value            -- test
//!          | field '<-' value           -- modification
//!          | svar ('[' expr ']')+ '=' expr     -- state test
//!          | svar ('[' expr ']')+ '<-' expr    -- state update
//!          | svar ('[' expr ']')+ ('++' | '--')
//!          | svar ('[' expr ']')+       -- sugar for `... = True`
//! ```
//!
//! `|` and `&` demand predicate operands; using them on packet/state
//! modifications is reported as a parse error, mirroring the typing of
//! Figure 4. Line comments start with `//`.
//!
//! Nesting — parentheses, negations, `atomic` and `if` bodies, tuple
//! expressions — is capped at [`MAX_PARSE_DEPTH`] levels, so a hostile
//! source fails with a [`ParseError`] instead of recursing off the stack.

use crate::ast::{Expr, Policy, Pred, StateVar};
use crate::error::ParseError;
use crate::value::{Field, Ipv4, Prefix, Value};

/// How deeply a source may nest (see the module docs). A parenthesis costs
/// about 14 KiB of stack in a debug build, so a parse at this cap fits a
/// 2 MiB thread stack with half of it to spare; real policies — the paper's
/// listings, the examples, pretty-printed random policies — nest fewer than
/// twenty levels.
pub const MAX_PARSE_DEPTH: u32 = 64;

/// Parse a SNAP policy from surface syntax.
pub fn parse_policy(input: &str) -> Result<Policy, ParseError> {
    let tokens = lex(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let policy = parser.parse_policy()?;
    parser.expect_eof()?;
    Ok(policy)
}

/// Parse a SNAP predicate from surface syntax (a policy that is a filter).
pub fn parse_pred(input: &str) -> Result<Pred, ParseError> {
    let policy = parse_policy(input)?;
    let pos = 0;
    policy_to_pred(policy).ok_or_else(|| ParseError {
        position: pos,
        message: "expected a predicate, found a packet/state-modifying policy".to_string(),
    })
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Ip(Ipv4),
    Prefix(Prefix),
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Plus,
    Amp,
    Pipe,
    Tilde,
    Eq,
    Arrow,
    PlusPlus,
    MinusMinus,
    If,
    Then,
    Else,
    Id,
    Drop,
    Atomic,
    True,
    False,
    Not,
}

#[derive(Clone, Debug)]
struct Spanned {
    tok: Tok,
    pos: usize,
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn lex(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes: Vec<char> = input.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == '/' {
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        let tok = match c {
            '(' => {
                i += 1;
                Tok::LParen
            }
            ')' => {
                i += 1;
                Tok::RParen
            }
            '[' => {
                i += 1;
                Tok::LBracket
            }
            ']' => {
                i += 1;
                Tok::RBracket
            }
            ';' => {
                i += 1;
                Tok::Semi
            }
            '&' => {
                i += 1;
                Tok::Amp
            }
            '|' => {
                i += 1;
                Tok::Pipe
            }
            '~' | '!' | '¬' => {
                i += 1;
                Tok::Tilde
            }
            '=' => {
                i += 1;
                Tok::Eq
            }
            '+' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '+' {
                    i += 2;
                    Tok::PlusPlus
                } else {
                    i += 1;
                    Tok::Plus
                }
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '-' {
                    i += 2;
                    Tok::MinusMinus
                } else {
                    return Err(ParseError {
                        position: start,
                        message: "unexpected '-' (did you mean '--' or '<-'?)".to_string(),
                    });
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == '-' {
                    i += 2;
                    Tok::Arrow
                } else {
                    return Err(ParseError {
                        position: start,
                        message: "unexpected '<' (did you mean '<-'?)".to_string(),
                    });
                }
            }
            '"' => {
                i += 1;
                let mut s = String::new();
                while i < bytes.len() && bytes[i] != '"' {
                    s.push(bytes[i]);
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(ParseError {
                        position: start,
                        message: "unterminated string literal".to_string(),
                    });
                }
                i += 1; // closing quote
                Tok::Str(s)
            }
            c if c.is_ascii_digit() => {
                // Integer, IP address, or IP prefix.
                let mut s = String::new();
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                    s.push(bytes[i]);
                    i += 1;
                }
                if s.contains('.') {
                    let addr = Ipv4::parse(&s).ok_or_else(|| ParseError {
                        position: start,
                        message: format!("malformed IP address `{s}`"),
                    })?;
                    // Optional /len suffix.
                    if i < bytes.len() && bytes[i] == '/' {
                        i += 1;
                        let mut lenstr = String::new();
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            lenstr.push(bytes[i]);
                            i += 1;
                        }
                        let len: u8 = lenstr.parse().map_err(|_| ParseError {
                            position: start,
                            message: format!("malformed prefix length `{lenstr}`"),
                        })?;
                        if len > 32 {
                            return Err(ParseError {
                                position: start,
                                message: format!("prefix length {len} out of range"),
                            });
                        }
                        Tok::Prefix(Prefix::new(addr, len))
                    } else {
                        Tok::Ip(addr)
                    }
                } else {
                    let n: i64 = s.parse().map_err(|_| ParseError {
                        position: start,
                        message: format!("malformed integer `{s}`"),
                    })?;
                    Tok::Int(n)
                }
            }
            c if is_ident_start(c) => {
                let mut s = String::new();
                s.push(c);
                i += 1;
                loop {
                    if i >= bytes.len() {
                        break;
                    }
                    let d = bytes[i];
                    // An interior `-` / `.` continues the identifier only when
                    // followed by another identifier character; `--` must stay
                    // a decrement even after an identifier.
                    let interior_punct = (d == '-' || d == '.')
                        && i + 1 < bytes.len()
                        && is_ident_continue(bytes[i + 1])
                        && !(d == '-' && bytes[i + 1] == '-');
                    if is_ident_continue(d) || interior_punct {
                        s.push(d);
                        i += 1;
                    } else {
                        break;
                    }
                }
                match s.as_str() {
                    "if" => Tok::If,
                    "then" => Tok::Then,
                    "else" => Tok::Else,
                    "id" => Tok::Id,
                    "drop" => Tok::Drop,
                    "atomic" => Tok::Atomic,
                    "True" => Tok::True,
                    "False" => Tok::False,
                    "not" => Tok::Not,
                    _ => Tok::Ident(s),
                }
            }
            other => {
                return Err(ParseError {
                    position: start,
                    message: format!("unexpected character `{other}`"),
                })
            }
        };
        out.push(Spanned { tok, pos: start });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Nesting levels entered and not yet left.
    depth: u32,
}

/// Convert a policy back to a predicate when it is purely a filter.
pub fn policy_to_pred(p: Policy) -> Option<Pred> {
    match p {
        Policy::Filter(x) => Some(x),
        _ => None,
    }
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|s| &s.tok)
    }

    fn peek_pos(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.pos)
            .unwrap_or(usize::MAX)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t.map(|s| s.tok)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.peek_pos(),
            message: message.into(),
        }
    }

    fn expect(&mut self, expected: &Tok, what: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == expected => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error("trailing input after policy"))
        }
    }

    /// Run `inner` one nesting level down; every recursion of the grammar
    /// descends through here, so [`MAX_PARSE_DEPTH`] bounds all of it.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_PARSE_DEPTH} levels")));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn parse_policy(&mut self) -> Result<Policy, ParseError> {
        let mut acc = self.parse_seq()?;
        while self.peek() == Some(&Tok::Plus) {
            self.pos += 1;
            let rhs = self.parse_seq()?;
            acc = acc.par(rhs);
        }
        Ok(acc)
    }

    fn parse_seq(&mut self) -> Result<Policy, ParseError> {
        let mut acc = self.parse_disj()?;
        while self.peek() == Some(&Tok::Semi) {
            self.pos += 1;
            let rhs = self.parse_disj()?;
            acc = acc.seq(rhs);
        }
        Ok(acc)
    }

    fn parse_disj(&mut self) -> Result<Policy, ParseError> {
        let mut acc = self.parse_conj()?;
        while self.peek() == Some(&Tok::Pipe) {
            self.pos += 1;
            let rhs = self.parse_conj()?;
            let l = policy_to_pred(acc)
                .ok_or_else(|| self.error("left operand of `|` must be a predicate"))?;
            let r = policy_to_pred(rhs)
                .ok_or_else(|| self.error("right operand of `|` must be a predicate"))?;
            acc = Policy::Filter(l.or(r));
        }
        Ok(acc)
    }

    fn parse_conj(&mut self) -> Result<Policy, ParseError> {
        let mut acc = self.parse_unary()?;
        while self.peek() == Some(&Tok::Amp) {
            self.pos += 1;
            let rhs = self.parse_unary()?;
            let l = policy_to_pred(acc)
                .ok_or_else(|| self.error("left operand of `&` must be a predicate"))?;
            let r = policy_to_pred(rhs)
                .ok_or_else(|| self.error("right operand of `&` must be a predicate"))?;
            acc = Policy::Filter(l.and(r));
        }
        Ok(acc)
    }

    /// A unary operand: one nesting level, whether a negation or an atom
    /// (whose parentheses, `atomic` and `if` recurse back into the
    /// grammar).
    fn parse_unary(&mut self) -> Result<Policy, ParseError> {
        self.nested(Self::parse_unary_nested)
    }

    fn parse_unary_nested(&mut self) -> Result<Policy, ParseError> {
        if matches!(self.peek(), Some(Tok::Tilde) | Some(Tok::Not)) {
            self.pos += 1;
            let inner = self.parse_unary()?;
            let p = policy_to_pred(inner)
                .ok_or_else(|| self.error("operand of negation must be a predicate"))?;
            return Ok(Policy::Filter(p.not()));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<Policy, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Id) => {
                self.pos += 1;
                Ok(Policy::id())
            }
            Some(Tok::Drop) => {
                self.pos += 1;
                Ok(Policy::drop())
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let p = self.parse_policy()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(p)
            }
            Some(Tok::Atomic) => {
                self.pos += 1;
                self.expect(&Tok::LParen, "`(` after atomic")?;
                let p = self.parse_policy()?;
                self.expect(&Tok::RParen, "`)` closing atomic")?;
                Ok(p.atomic())
            }
            Some(Tok::If) => {
                self.pos += 1;
                let cond_policy = self.parse_disj_only()?;
                let cond = policy_to_pred(cond_policy)
                    .ok_or_else(|| self.error("if-condition must be a predicate"))?;
                self.expect(&Tok::Then, "`then`")?;
                let then_branch = self.parse_seq()?;
                self.expect(&Tok::Else, "`else`")?;
                let else_branch = self.parse_seq()?;
                Ok(Policy::If(
                    cond,
                    Box::new(then_branch),
                    Box::new(else_branch),
                ))
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                self.parse_ident_form(name)
            }
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }

    /// Parse the condition of an `if` — predicates only, stops before `then`.
    fn parse_disj_only(&mut self) -> Result<Policy, ParseError> {
        self.parse_disj()
    }

    /// Something starting with an identifier: a field test/modification or a
    /// state reference.
    fn parse_ident_form(&mut self, name: String) -> Result<Policy, ParseError> {
        if self.peek() == Some(&Tok::LBracket) {
            // State reference: name[e]...[e]
            let mut index = Vec::new();
            while self.peek() == Some(&Tok::LBracket) {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect(&Tok::RBracket, "`]`")?;
                index.push(e);
            }
            let var = StateVar::new(name);
            match self.peek() {
                Some(Tok::Arrow) => {
                    self.pos += 1;
                    let value = self.parse_expr()?;
                    Ok(Policy::StateSet { var, index, value })
                }
                Some(Tok::Eq) => {
                    self.pos += 1;
                    let value = self.parse_expr()?;
                    Ok(Policy::Filter(Pred::StateTest { var, index, value }))
                }
                Some(Tok::PlusPlus) => {
                    self.pos += 1;
                    Ok(Policy::StateIncr { var, index })
                }
                Some(Tok::MinusMinus) => {
                    self.pos += 1;
                    Ok(Policy::StateDecr { var, index })
                }
                // Bare state reference: sugar for `s[e] = True`.
                _ => Ok(Policy::Filter(Pred::StateTest {
                    var,
                    index,
                    value: Expr::Value(Value::Bool(true)),
                })),
            }
        } else {
            // Field test or field modification.
            let f = Field::from_name(&name);
            match self.peek() {
                Some(Tok::Eq) => {
                    self.pos += 1;
                    let v = self.parse_value()?;
                    Ok(Policy::Filter(Pred::Test(f, v)))
                }
                Some(Tok::Arrow) => {
                    self.pos += 1;
                    let v = self.parse_value()?;
                    Ok(Policy::Modify(f, v))
                }
                other => Err(self.error(format!(
                    "expected `=`, `<-` or `[` after identifier `{name}`, found {other:?}"
                ))),
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Tok::Int(i)) => Ok(Value::Int(i)),
            Some(Tok::Ip(ip)) => Ok(Value::Ip(ip)),
            Some(Tok::Prefix(p)) => Ok(Value::Prefix(p)),
            Some(Tok::Str(s)) => Ok(Value::str(s)),
            Some(Tok::True) => Ok(Value::Bool(true)),
            Some(Tok::False) => Ok(Value::Bool(false)),
            Some(Tok::Ident(s)) => Ok(Value::sym(s)),
            other => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error(format!("expected a value, found {other:?}")))
            }
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::parse_expr_nested)
    }

    fn parse_expr_nested(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Ident(s)) if Field::is_known_name(&s) => {
                self.pos += 1;
                Ok(Expr::Field(Field::from_name(&s)))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let mut items = vec![self.parse_expr()?];
                while self.peek() != Some(&Tok::RParen) {
                    items.push(self.parse_expr()?);
                }
                self.expect(&Tok::RParen, "`)`")?;
                Ok(Expr::Tuple(items))
            }
            _ => Ok(Expr::Value(self.parse_value()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::pretty::policy_to_string;

    #[test]
    fn parse_primitives() {
        assert_eq!(parse_policy("id").unwrap(), Policy::id());
        assert_eq!(parse_policy("drop").unwrap(), Policy::drop());
        assert_eq!(
            parse_policy("outport <- 6").unwrap(),
            modify(Field::OutPort, Value::Int(6))
        );
        assert_eq!(
            parse_policy("dstip = 10.0.6.0/24").unwrap(),
            Policy::Filter(test_prefix(Field::DstIp, 10, 0, 6, 0, 24))
        );
        assert_eq!(
            parse_policy("srcip = 10.0.1.1").unwrap(),
            Policy::Filter(test(Field::SrcIp, Value::ip(10, 0, 1, 1)))
        );
    }

    #[test]
    fn parse_state_forms() {
        assert_eq!(
            parse_policy("count[inport]++").unwrap(),
            state_incr("count", vec![field(Field::InPort)])
        );
        assert_eq!(
            parse_policy("susp-client[srcip]--").unwrap(),
            state_decr("susp-client", vec![field(Field::SrcIp)])
        );
        assert_eq!(
            parse_policy("orphan[dstip][dns.rdata] <- True").unwrap(),
            state_set(
                "orphan",
                vec![field(Field::DstIp), field(Field::DnsRdata)],
                Value::Bool(true)
            )
        );
        assert_eq!(
            parse_policy("blacklist[dstip] = True").unwrap(),
            Policy::Filter(state_test(
                "blacklist",
                vec![field(Field::DstIp)],
                Value::Bool(true)
            ))
        );
        // Bare state reference sugar.
        assert_eq!(
            parse_policy("orphan[srcip][dstip]").unwrap(),
            Policy::Filter(state_truthy(
                "orphan",
                vec![field(Field::SrcIp), field(Field::DstIp)]
            ))
        );
    }

    #[test]
    fn parse_composition_precedence() {
        // `;` binds tighter than `+`.
        let p = parse_policy("id; drop + id").unwrap();
        assert_eq!(p, Policy::id().seq(Policy::drop()).par(Policy::id()));
        // `&` binds tighter than `|`.
        let q = parse_policy("srcport = 53 | dstport = 53 & proto = 17").unwrap();
        let expected = Policy::Filter(
            test(Field::SrcPort, Value::Int(53))
                .or(test(Field::DstPort, Value::Int(53)).and(test(Field::Proto, Value::Int(17)))),
        );
        assert_eq!(q, expected);
    }

    #[test]
    fn parse_negation_forms() {
        let a = parse_policy("~established[srcip][dstip]").unwrap();
        let b = parse_policy("not established[srcip][dstip]").unwrap();
        let c = parse_policy("!established[srcip][dstip]").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(matches!(a, Policy::Filter(Pred::Not(_))));
    }

    #[test]
    fn parse_figure_1_program() {
        let src = r#"
            // DNS-tunnel-detect (Figure 1)
            if dstip = 10.0.6.0/24 & srcport = 53 then
                orphan[dstip][dns.rdata] <- True;
                susp-client[dstip]++;
                if susp-client[dstip] = 5 then
                    blacklist[dstip] <- True
                else id
            else
                if srcip = 10.0.6.0/24 & orphan[srcip][dstip] then
                    orphan[srcip][dstip] <- False;
                    susp-client[srcip]--
                else id
        "#;
        let p = parse_policy(src).unwrap();
        let vars = p.state_vars();
        assert_eq!(vars.len(), 3);
        assert!(vars.contains(&StateVar::new("orphan")));
        assert!(vars.contains(&StateVar::new("susp-client")));
        assert!(vars.contains(&StateVar::new("blacklist")));
    }

    #[test]
    fn parse_assign_egress() {
        let src = r#"
            if dstip = 10.0.1.0/24 then outport <- 1
            else if dstip = 10.0.2.0/24 then outport <- 2
            else if dstip = 10.0.6.0/24 then outport <- 6
            else drop
        "#;
        let p = parse_policy(src).unwrap();
        assert!(p.fields().contains(&Field::OutPort));
        assert!(p.state_vars().is_empty());
    }

    #[test]
    fn parse_atomic_block() {
        let src = "atomic(hon-ip[inport] <- srcip; hon-dstport[inport] <- dstport)";
        let p = parse_policy(src).unwrap();
        assert!(matches!(p, Policy::Atomic(_)));
        assert_eq!(p.writes().len(), 2);
    }

    #[test]
    fn parse_string_and_symbol_values() {
        let p = parse_policy(r#"content = "Kindle/3.0+""#).unwrap();
        assert_eq!(
            p,
            Policy::Filter(test(Field::Content, Value::str("Kindle/3.0+")))
        );
        let q = parse_policy("tcp.flags = SYN").unwrap();
        assert_eq!(q, Policy::Filter(test(Field::TcpFlags, Value::sym("SYN"))));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_policy("if srcport = 53 then id").is_err()); // missing else
        assert!(parse_policy("outport <-").is_err());
        assert!(parse_policy("srcport = 53 &").is_err());
        assert!(parse_policy("outport <- 1 & srcport = 53").is_err()); // non-predicate operand
        assert!(parse_policy("srcport < 53").is_err());
        assert!(parse_policy("srcport = 53 extra").is_err());
        assert!(parse_policy("\"unterminated").is_err());
        assert!(parse_policy("dstip = 10.0.6.0/99").is_err());
        assert!(parse_policy("dstip = 10.0.6").is_err());
    }

    #[test]
    fn roundtrip_through_pretty_printer() {
        let samples = vec![
            "id",
            "drop",
            "outport <- 6",
            "count[inport]++",
            "(if dstip = 10.0.6.0/24 & srcport = 53 then blacklist[dstip] <- True else id)",
            "((id; drop) + count[inport]++)",
            "atomic((hon-ip[inport] <- srcip; hon-dstport[inport] <- dstport))",
            "~(orphan[srcip][dstip] = True)",
        ];
        for src in samples {
            let p = parse_policy(src).unwrap();
            let printed = policy_to_string(&p);
            let reparsed = parse_policy(&printed)
                .unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
            assert_eq!(p, reparsed, "round-trip failed for `{src}`");
        }
    }

    /// `open` repeated `depth` times around `inner`, closed by `close`.
    fn nest(open: &str, inner: &str, close: &str, depth: usize) -> String {
        open.repeat(depth) + inner + &close.repeat(depth)
    }

    /// A source `depth` levels deep parses at the cap and fails, without
    /// recursing off the stack, far beyond it.
    fn assert_depth_capped(source: impl Fn(usize) -> String) {
        let cap = MAX_PARSE_DEPTH as usize;
        // The outermost policy level is one more than the source's nesting.
        let err = parse_policy(&source(200_000)).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        let err = parse_policy(&source(cap)).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        assert!(parse_policy(&source(cap - 1)).is_ok());
    }

    #[test]
    fn deeply_nested_parentheses_are_a_parse_error() {
        assert_depth_capped(|depth| nest("(", "id", ")", depth));
        assert_depth_capped(|depth| nest("atomic(", "id", ")", depth));
    }

    #[test]
    fn long_negation_chains_are_a_parse_error() {
        assert_depth_capped(|depth| nest("!", "srcport = 53", "", depth));
        assert_depth_capped(|depth| nest("not ", "srcport = 53", "", depth));
    }

    #[test]
    fn deeply_nested_expressions_are_a_parse_error() {
        // The state index is itself one level below the state reference.
        assert_depth_capped(|depth| format!("s[{}]++", nest("(", "srcip", ")", depth - 1)));
    }

    #[test]
    fn parse_pred_helper() {
        assert_eq!(
            parse_pred("srcport = 53 & dstip = 10.0.6.0/24").unwrap(),
            test(Field::SrcPort, Value::Int(53)).and(test_prefix(Field::DstIp, 10, 0, 6, 0, 24))
        );
        assert!(parse_pred("outport <- 1").is_err());
    }
}
