//! Coordinates and shapes for fibertree ranks.
//!
//! A coordinate identifies an element within a fiber. Plain ranks use
//! integer point coordinates; ranks produced by *flattening* (combining two
//! ranks into one, Fig. 2 of the paper) use tuple coordinates whose
//! components are the coordinates of the original ranks.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A coordinate within a fiber.
///
/// `Point` is an ordinary integer coordinate. `Tuple` arises from rank
/// flattening: the coordinate of a flattened rank is the tuple of the
/// coordinates in the original fibers. Tuples order lexicographically, which
/// is exactly the order a depth-first traversal of the unflattened tree
/// visits them in, so flattening preserves iteration order.
///
/// # Examples
///
/// ```
/// use teaal_fibertree::Coord;
/// let a = Coord::Point(3);
/// let b = Coord::pair(0, 2);
/// assert!(Coord::pair(0, 2) < Coord::pair(2, 0));
/// assert_eq!(a.as_point(), Some(3));
/// assert_eq!(b.components().len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Coord {
    /// An integer coordinate on an ordinary rank.
    Point(u64),
    /// A tuple coordinate on a flattened rank.
    Tuple(Vec<Coord>),
}

impl Coord {
    /// Builds a two-component tuple coordinate from integer points.
    pub fn pair(a: u64, b: u64) -> Self {
        Coord::Tuple(vec![Coord::Point(a), Coord::Point(b)])
    }

    /// Returns the integer value if this is a point coordinate.
    pub fn as_point(&self) -> Option<u64> {
        match self {
            Coord::Point(p) => Some(*p),
            Coord::Tuple(_) => None,
        }
    }

    /// Returns the components of this coordinate.
    ///
    /// A point coordinate has a single component (itself); a tuple
    /// coordinate has one component per flattened rank.
    pub fn components(&self) -> Vec<Coord> {
        match self {
            Coord::Point(_) => vec![self.clone()],
            Coord::Tuple(cs) => cs.clone(),
        }
    }

    /// Component `i`, borrowed: a point is its own single component, a
    /// tuple has one per flattened rank. Agrees with
    /// [`Coord::components`] without allocating.
    pub fn component(&self, i: usize) -> Option<&Coord> {
        match self {
            Coord::Point(_) => (i == 0).then_some(self),
            Coord::Tuple(cs) => cs.get(i),
        }
    }

    /// Number of components (`1` for points).
    pub fn arity(&self) -> usize {
        match self {
            Coord::Point(_) => 1,
            Coord::Tuple(cs) => cs.len(),
        }
    }

    /// Concatenates two coordinates into a flattened tuple coordinate.
    ///
    /// Components of either side are spliced so that flattening is
    /// associative: `flat(flat(a,b),c) == flat(a,flat(b,c))`.
    pub fn flattened_with(&self, other: &Coord) -> Coord {
        let mut cs = self.components();
        cs.extend(other.components());
        Coord::Tuple(cs)
    }

    /// Splits the first component off a tuple coordinate.
    ///
    /// Returns `(first, rest)` where `rest` is a point when only one
    /// component remains. Returns `None` for point coordinates, which have
    /// nothing to split.
    pub fn split_first(&self) -> Option<(Coord, Coord)> {
        match self {
            Coord::Point(_) => None,
            Coord::Tuple(cs) => {
                let first = cs.first()?.clone();
                let rest: Vec<Coord> = cs[1..].to_vec();
                let rest = match rest.len() {
                    0 => return None,
                    1 => rest.into_iter().next().expect("len checked"),
                    _ => Coord::Tuple(rest),
                };
                Some((first, rest))
            }
        }
    }
}

impl From<u64> for Coord {
    fn from(p: u64) -> Self {
        Coord::Point(p)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Coord::Point(p) => write!(f, "{p}"),
            Coord::Tuple(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// The shape of a fiber: the set of legal coordinate values.
///
/// An `Interval(n)` shape means coordinates in `[0, n)`; a `Tuple` shape is
/// the product space of flattened ranks. Shapes drive uncompressed format
/// sizing and uniform-shape partitioning boundaries.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Shape {
    /// Coordinates are integers in `[0, n)`.
    Interval(u64),
    /// Coordinates are tuples drawn from the product of component shapes.
    Tuple(Vec<Shape>),
}

impl Shape {
    /// Number of legal coordinates in the shape.
    ///
    /// For tuples this is the product of component extents.
    pub fn extent(&self) -> u64 {
        match self {
            Shape::Interval(n) => *n,
            Shape::Tuple(ss) => ss.iter().map(Shape::extent).product(),
        }
    }

    /// Returns the interval bound if this is an interval shape.
    pub fn as_interval(&self) -> Option<u64> {
        match self {
            Shape::Interval(n) => Some(*n),
            Shape::Tuple(_) => None,
        }
    }

    /// Concatenates two shapes into a flattened tuple shape, splicing
    /// components just like [`Coord::flattened_with`].
    pub fn flattened_with(&self, other: &Shape) -> Shape {
        let mut cs = self.components();
        cs.extend(other.components());
        Shape::Tuple(cs)
    }

    /// Components of the shape (a single-element vec for intervals).
    pub fn components(&self) -> Vec<Shape> {
        match self {
            Shape::Interval(_) => vec![self.clone()],
            Shape::Tuple(ss) => ss.clone(),
        }
    }

    /// Whether `coord` is a legal coordinate of this shape.
    pub fn contains(&self, coord: &Coord) -> bool {
        match (self, coord) {
            (Shape::Interval(n), Coord::Point(p)) => p < n,
            (Shape::Tuple(ss), Coord::Tuple(cs)) => {
                ss.len() == cs.len() && ss.iter().zip(cs).all(|(s, c)| s.contains(c))
            }
            _ => false,
        }
    }
}

impl From<u64> for Shape {
    fn from(n: u64) -> Self {
        Shape::Interval(n)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Interval(n) => write!(f, "{n}"),
            Shape::Tuple(ss) => {
                write!(f, "(")?;
                for (i, s) in ss.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_ordering_is_numeric() {
        assert!(Coord::Point(1) < Coord::Point(2));
        assert_eq!(Coord::Point(5), Coord::from(5));
    }

    #[test]
    fn tuple_ordering_is_lexicographic() {
        // Mirrors Fig. 2: (0,2) < (2,0) < (2,1) < (2,2).
        let order = [
            Coord::pair(0, 2),
            Coord::pair(2, 0),
            Coord::pair(2, 1),
            Coord::pair(2, 2),
        ];
        for w in order.windows(2) {
            assert!(w[0] < w[1], "{} should precede {}", w[0], w[1]);
        }
    }

    #[test]
    fn flattening_is_associative() {
        let a = Coord::Point(1);
        let b = Coord::Point(2);
        let c = Coord::Point(3);
        let left = a.flattened_with(&b).flattened_with(&c);
        let right = a.flattened_with(&b.flattened_with(&c));
        assert_eq!(left, right);
        assert_eq!(left.arity(), 3);
    }

    #[test]
    fn split_first_inverts_pair() {
        let c = Coord::pair(4, 7);
        let (first, rest) = c.split_first().expect("tuple splits");
        assert_eq!(first, Coord::Point(4));
        assert_eq!(rest, Coord::Point(7));
        assert!(Coord::Point(3).split_first().is_none());
    }

    #[test]
    fn shape_extent_and_containment() {
        let s = Shape::Interval(4).flattened_with(&Shape::Interval(3));
        assert_eq!(s.extent(), 12);
        assert!(s.contains(&Coord::pair(3, 2)));
        assert!(!s.contains(&Coord::pair(4, 0)));
        assert!(!s.contains(&Coord::Point(1)));
    }

    #[test]
    fn display_roundtrips_visually() {
        assert_eq!(Coord::pair(1, 2).to_string(), "(1, 2)");
        assert_eq!(Shape::Interval(9).to_string(), "9");
    }
}
