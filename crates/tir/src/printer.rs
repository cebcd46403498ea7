//! Pretty-printing of TIR statements and functions.

use crate::stmt::{PrimFunc, Stmt};
use std::fmt;

fn indent(f: &mut fmt::Formatter<'_>, level: usize) -> fmt::Result {
    for _ in 0..level {
        f.write_str("  ")?;
    }
    Ok(())
}

fn print_stmt(s: &Stmt, f: &mut fmt::Formatter<'_>, level: usize) -> fmt::Result {
    match s {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            indent(f, level)?;
            let kw = kind.keyword();
            writeln!(f, "{kw} {} in [{}, {}) {{", var.name, min, min + extent)?;
            print_stmt(body, f, level + 1)?;
            indent(f, level)?;
            writeln!(f, "}}")
        }
        Stmt::BufferStore {
            buffer,
            indices,
            value,
        } => {
            indent(f, level)?;
            write!(f, "{}[", buffer.name)?;
            for (n, i) in indices.iter().enumerate() {
                if n > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{i}")?;
            }
            writeln!(f, "] = {value}")
        }
        Stmt::IfThenElse { cond, then, else_ } => {
            indent(f, level)?;
            writeln!(f, "if {cond} {{")?;
            print_stmt(then, f, level + 1)?;
            if let Some(e) = else_ {
                indent(f, level)?;
                writeln!(f, "}} else {{")?;
                print_stmt(e, f, level + 1)?;
            }
            indent(f, level)?;
            writeln!(f, "}}")
        }
        Stmt::Seq(items) => {
            for s in items {
                print_stmt(s, f, level)?;
            }
            Ok(())
        }
        Stmt::Nop => Ok(()),
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        print_stmt(self, f, 0)
    }
}

impl fmt::Display for PrimFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn {}(", self.name)?;
        for (n, p) in self.params.iter().enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        writeln!(f, ") {{")?;
        for a in &self.allocs {
            writeln!(f, "  alloc {a}")?;
        }
        print_stmt(&self.body, f, 1)?;
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use crate::lower::lower;
    use tvm_te::{compute, placeholder, DType, Schedule};

    #[test]
    fn prints_function() {
        let a = placeholder([4, 4], DType::F64, "A");
        let b = compute([4, 4], "B", |i| a.at(&[i[0].clone(), i[1].clone()]) + 1i64);
        let s = Schedule::create(std::slice::from_ref(&b));
        let f = lower(&s, &[a, b], "add1");
        let text = format!("{f}");
        assert!(text.contains("fn add1("), "got: {text}");
        assert!(text.contains("for i in [0, 4)"), "got: {text}");
        assert!(text.contains("B[i, j] ="), "got: {text}");
    }
}
