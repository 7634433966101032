//! Abstract syntax for extended Einsums (paper §2.2, §3.1).
//!
//! An equation names an output access, and a right-hand side that is either
//! a sum of (possibly negated) products of input accesses or a `take(...)`
//! — the paper's decoupled-intersection operator. Index expressions are
//! affine (`I[q + s]`, `I[q + 2]`), which is what lets a single Einsum
//! describe convolution-style kernels.

use std::collections::BTreeSet;
use std::fmt;

/// An affine index expression: the sum of zero or more index variables and
/// a constant offset (e.g. `q + s`, `p + r`, `k`, `q + 1`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IndexExpr {
    /// Index variables summed, in source order (lowercase).
    pub vars: Vec<String>,
    /// Constant offset added to the variables.
    pub offset: i64,
}

impl IndexExpr {
    /// A single-variable index.
    pub fn var(name: &str) -> Self {
        IndexExpr {
            vars: vec![name.to_string()],
            offset: 0,
        }
    }

    /// Whether this is a single plain variable with no offset.
    pub fn is_simple(&self) -> bool {
        self.vars.len() == 1 && self.offset == 0
    }

    /// Evaluates the expression given variable values; `None` if a variable
    /// is unbound or the result is negative.
    pub fn eval(&self, lookup: impl Fn(&str) -> Option<i64>) -> Option<u64> {
        let mut acc = self.offset;
        for v in &self.vars {
            acc += lookup(v)?;
        }
        u64::try_from(acc).ok()
    }
}

impl fmt::Display for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.vars.is_empty() {
            return write!(f, "{}", self.offset);
        }
        write!(f, "{}", self.vars.join(" + "))?;
        if self.offset != 0 {
            write!(f, " + {}", self.offset)?;
        }
        Ok(())
    }
}

/// A tensor access: name plus one index expression per rank
/// (`A[k, m]`, `I[q + s]`).
#[derive(Clone, PartialEq, Debug)]
pub struct TensorAccess {
    /// The tensor's name (uppercase by convention).
    pub tensor: String,
    /// One index expression per rank.
    pub indices: Vec<IndexExpr>,
}

impl TensorAccess {
    /// Builds an access with simple variable indices.
    pub fn simple(tensor: &str, vars: &[&str]) -> Self {
        TensorAccess {
            tensor: tensor.to_string(),
            indices: vars.iter().map(|v| IndexExpr::var(v)).collect(),
        }
    }

    /// All index variables appearing in this access.
    pub fn vars(&self) -> BTreeSet<String> {
        self.indices
            .iter()
            .flat_map(|i| i.vars.iter().cloned())
            .collect()
    }
}

impl fmt::Display for TensorAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.tensor)?;
        for (i, ix) in self.indices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{ix}")?;
        }
        write!(f, "]")
    }
}

/// The sign of a term in a sum-of-products right-hand side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sign {
    /// Added term.
    Plus,
    /// Subtracted term (`Y1 = E - T`; change-detection in graph cascades).
    Minus,
}

/// One product term: the factors multiplied together.
#[derive(Clone, PartialEq, Debug)]
pub struct Product {
    /// The accesses multiplied; a single factor denotes a plain copy or
    /// reduction (`Z[m, n] = T[k, m, n]`).
    pub factors: Vec<TensorAccess>,
}

impl fmt::Display for Product {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.factors.iter().enumerate() {
            if i > 0 {
                write!(f, " * ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// The right-hand side of an equation.
#[derive(Clone, PartialEq, Debug)]
pub enum Rhs {
    /// A signed sum of products (covers plain copies, products, and
    /// additions/subtractions).
    SumOfProducts(Vec<(Sign, Product)>),
    /// `take(arg0, arg1, ..., which)`: if all arguments are nonzero at a
    /// point, copy argument `which` to the output; otherwise the output is
    /// empty there (paper Eq. 6).
    Take {
        /// The co-intersected arguments.
        args: Vec<TensorAccess>,
        /// Index of the argument copied to the output.
        which: usize,
    },
}

impl Rhs {
    /// All tensor accesses on the right-hand side, in source order.
    pub fn accesses(&self) -> Vec<&TensorAccess> {
        match self {
            Rhs::SumOfProducts(terms) => terms.iter().flat_map(|(_, p)| p.factors.iter()).collect(),
            Rhs::Take { args, .. } => args.iter().collect(),
        }
    }

    /// All index variables on the right-hand side.
    pub fn vars(&self) -> BTreeSet<String> {
        self.accesses().iter().flat_map(|a| a.vars()).collect()
    }
}

impl fmt::Display for Rhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rhs::SumOfProducts(terms) => {
                for (i, (sign, p)) in terms.iter().enumerate() {
                    match (i, sign) {
                        (0, Sign::Plus) => {}
                        (0, Sign::Minus) => write!(f, "-")?,
                        (_, Sign::Plus) => write!(f, " + ")?,
                        (_, Sign::Minus) => write!(f, " - ")?,
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Rhs::Take { args, which } => {
                write!(f, "take(")?;
                for a in args {
                    write!(f, "{a}, ")?;
                }
                write!(f, "{which})")
            }
        }
    }
}

/// One Einsum equation: `output = rhs`.
#[derive(Clone, PartialEq, Debug)]
pub struct Equation {
    /// The output access; its indices must be simple variables.
    pub output: TensorAccess,
    /// The right-hand side.
    pub rhs: Rhs,
}

impl Equation {
    /// The equation's name: the output tensor's name (equations are
    /// addressed by output tensor throughout the mapping specification).
    pub fn name(&self) -> &str {
        &self.output.tensor
    }

    /// Iteration-space rank ids: the uppercase of every index variable, in
    /// order of first appearance (output first, then the right-hand side).
    pub fn iteration_ranks(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        let mut push = |v: &str| {
            let rank = v.to_uppercase();
            if seen.insert(rank.clone()) {
                out.push(rank);
            }
        };
        for ix in &self.output.indices {
            for v in &ix.vars {
                push(v);
            }
        }
        for a in self.rhs.accesses() {
            for ix in &a.indices {
                for v in &ix.vars {
                    push(v);
                }
            }
        }
        out
    }

    /// Rank ids indexed on the output (uppercase output variables).
    pub fn output_ranks(&self) -> Vec<String> {
        self.output
            .indices
            .iter()
            .flat_map(|ix| ix.vars.iter())
            .map(|v| v.to_uppercase())
            .collect()
    }

    /// Rank ids reduced over (in the iteration space but not the output).
    pub fn reduction_ranks(&self) -> Vec<String> {
        let out: BTreeSet<String> = self.output_ranks().into_iter().collect();
        self.iteration_ranks()
            .into_iter()
            .filter(|r| !out.contains(r))
            .collect()
    }

    /// Names of the input tensors read by this equation, in source order
    /// without duplicates.
    pub fn input_tensors(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for a in self.rhs.accesses() {
            if seen.insert(a.tensor.clone()) {
                out.push(a.tensor.clone());
            }
        }
        out
    }
}

impl fmt::Display for Equation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.output, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul() -> Equation {
        Equation {
            output: TensorAccess::simple("Z", &["m", "n"]),
            rhs: Rhs::SumOfProducts(vec![(
                Sign::Plus,
                Product {
                    factors: vec![
                        TensorAccess::simple("A", &["k", "m"]),
                        TensorAccess::simple("B", &["k", "n"]),
                    ],
                },
            )]),
        }
    }

    #[test]
    fn iteration_ranks_in_first_appearance_order() {
        let eq = matmul();
        assert_eq!(eq.iteration_ranks(), vec!["M", "N", "K"]);
        assert_eq!(eq.output_ranks(), vec!["M", "N"]);
        assert_eq!(eq.reduction_ranks(), vec!["K"]);
    }

    #[test]
    fn affine_index_evaluation() {
        let ix = IndexExpr {
            vars: vec!["q".into(), "s".into()],
            offset: 0,
        };
        let val = ix.eval(|v| match v {
            "q" => Some(3),
            "s" => Some(2),
            _ => None,
        });
        assert_eq!(val, Some(5));
        assert!(!ix.is_simple());
        assert!(IndexExpr::var("k").is_simple());
    }

    #[test]
    fn negative_index_results_are_rejected() {
        let ix = IndexExpr {
            vars: vec!["q".into()],
            offset: -5,
        };
        assert_eq!(ix.eval(|_| Some(3)), None);
        assert_eq!(ix.eval(|_| Some(7)), Some(2));
    }

    #[test]
    fn take_accesses_and_display() {
        let eq = Equation {
            output: TensorAccess::simple("T", &["k", "m", "n"]),
            rhs: Rhs::Take {
                args: vec![
                    TensorAccess::simple("A", &["k", "m"]),
                    TensorAccess::simple("B", &["k", "n"]),
                ],
                which: 1,
            },
        };
        assert_eq!(eq.input_tensors(), vec!["A", "B"]);
        assert_eq!(eq.to_string(), "T[k, m, n] = take(A[k, m], B[k, n], 1)");
    }

    #[test]
    fn display_sum_of_products() {
        let eq = matmul();
        assert_eq!(eq.to_string(), "Z[m, n] = A[k, m] * B[k, n]");
    }
}
