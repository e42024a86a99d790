"""Exception hierarchy shared by all casson4 modules."""


class Casson4Error(Exception):
    """Base class for all library errors."""


class InternalError(Exception):
    """An internal invariant failed: a defect in casson4, not bad input.

    Deliberately outside the Casson4Error tree, so that no handler for
    bad input catches it; the CLI reports it with exit code 3.
    """


# --- exact linear algebra ---

class NotHermitian(Casson4Error):
    """Matrix is not equal to its conjugate transpose."""


class InvalidSeifertMatrix(Casson4Error):
    """Matrix fails the Seifert-matrix invariants (even size, |det(S - S^T)| = 1)."""


class DegeneratePolarization(Casson4Error):
    """S + S^T is singular mod 2, so no symplectic basis exists."""


class NotCoprime(Casson4Error):
    """Arguments required to be coprime are not."""


# --- sphere / mapping-torus invariants ---

class NonIntegral(Casson4Error):
    """A quantity that must be an integer is not (invalid geometric input)."""


# --- Floer bookkeeping ---

class SizeMismatch(Casson4Error):
    """Matrix size does not match the declared rank."""


class OddLefschetz(Casson4Error):
    """Lefschetz number is odd, so it cannot be halved to an integer."""


class NoSolution(Casson4Error):
    """No sign assignment realizes the target Lefschetz number."""


class AmbiguousSolution(Casson4Error):
    """More than one sign assignment realizes the target Lefschetz number."""

    def __init__(self, candidates):
        self.candidates = list(candidates)
        super().__init__(
            f"{len(self.candidates)} sign assignments realize the target, among them "
            + ", ".join(map(str, self.candidates[:2]))
        )


# --- cohomology rings of homology tori ---

class InconsistentRing(Casson4Error):
    """Cup-ring data fails symmetry, alternation, or pairing checks."""


class ZeroW2(Casson4Error):
    """The class w must be nonzero."""


class HypothesisFails(Casson4Error):
    """No class xi with w cup xi != 0 exists; the count is not supported."""


class NonBinary(Casson4Error):
    """A mod-2 reduction did not land on 0 or 1 (inconsistent table)."""


# --- circle bundles ---

class NonTrivialAlexander(Casson4Error):
    """The knot's Alexander polynomial is not 1."""


class BadEuler(Casson4Error):
    """Only Euler number 1 circle bundles are supported."""


# --- CLI ---

class ParseError(Casson4Error):
    """Input file cannot be read as JSON: unreadable, malformed or nested too deeply."""


class SchemaError(Casson4Error):
    """Input JSON does not conform to the documented schema."""
