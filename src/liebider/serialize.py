"""JSON file formats for algebras, bilinear maps, and posets.

Rationals are stored as [numerator, denominator] integer pairs so a file
round-trips bit-exactly.  An algebra file carries the full structure
constant table and is revalidated on load: the unit and associativity
checks on the sparse integer table, and, for a file with its idempotent,
the Peirce split and the center.  Every CLI command reloads its algebra
file, so each pays that once; it grows with the nonzero products, not
with dim**3.  Map files do not repeat the algebra; they carry a
content-hash fingerprint of the algebra document instead, because a
coefficient tensor is meaningless under any other basis ordering and a
silent mismatch is the likeliest user error.
"""

import hashlib
import json

from .algebra import Element, FiniteAlgebra
from .bider import BilinearMap
from .linalg import exact
from .triangular import Disconnected, Poset, TriangularAlgebra

ALGEBRA_SCHEMA = 1
MAP_SCHEMA = 1


class SchemaError(ValueError):
    """The document does not match the expected file format."""


class FingerprintMismatch(Exception):
    """The map file was produced for a different algebra file."""


def _pair(v):
    return [v.numerator, v.denominator]


def _is_int(x):
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _unpair(obj, what):
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(_is_int(x) for x in obj)):
        raise SchemaError(f"{what}: expected an [num, den] integer pair")
    if obj[1] == 0:
        raise SchemaError(f"{what}: zero denominator")
    return exact(obj[0], obj[1])


def canonical_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def fingerprint(doc):
    """sha256 hex digest of the canonical JSON form of a document."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def algebra_to_doc(alg, idempotent_e=None):
    doc = {
        "schema": ALGEBRA_SCHEMA,
        "dim": alg.dim,
        "basis_labels": list(alg.basis_labels),
        "structure": [[i, j, k] + _pair(v) for (i, j, k, v) in alg.structure_items()],
        "unit": [_pair(v) for v in alg.unit],
    }
    if idempotent_e is not None:
        doc["idempotent_e"] = [_pair(v) for v in idempotent_e.coords]
    return doc


def algebra_from_doc(doc):
    """Rebuild (FiniteAlgebra, idempotent Element or None) from a document.

    Full validation runs again, so a corrupted file fails here rather than
    producing wrong answers later.
    """
    if not isinstance(doc, dict):
        raise SchemaError("algebra document must be an object")
    if doc.get("schema") != ALGEBRA_SCHEMA:
        raise SchemaError(f"unsupported algebra schema {doc.get('schema')!r}")
    dim = doc.get("dim")
    if not _is_int(dim) or dim < 1:
        raise SchemaError("dim must be a positive integer")
    labels = doc.get("basis_labels")
    if (not isinstance(labels, list) or len(labels) != dim
            or not all(isinstance(x, str) for x in labels)):
        raise SchemaError("basis_labels must list one string per basis element")
    # a JSON escape such as "\ud800" loads as a lone surrogate, which the
    # reports could not print
    if any(0xD800 <= ord(ch) <= 0xDFFF for x in labels for ch in x):
        raise SchemaError("basis_labels must not hold lone surrogates")
    # text reports join labels with spaces, so a witness must name each
    # basis element by one nonempty word of its own
    if any(not x or any(ch.isspace() for ch in x) for x in labels):
        raise SchemaError("basis_labels must be nonempty and hold no whitespace")
    if len(set(labels)) != dim:
        raise SchemaError("basis_labels must be distinct")
    structure = doc.get("structure")
    if not isinstance(structure, list):
        raise SchemaError("structure must be a list")
    items = []
    for row in structure:
        if not isinstance(row, list) or len(row) != 5:
            raise SchemaError("structure rows must be [i, j, k, num, den]")
        i, j, k = row[:3]
        if not all(_is_int(x) for x in (i, j, k)):
            raise SchemaError(f"structure indices ({i},{j},{k}) must be integers")
        items.append((i, j, k, _unpair(row[3:], "structure constant")))
    unit = doc.get("unit")
    if not isinstance(unit, list) or len(unit) != dim:
        raise SchemaError("unit must list one coordinate per basis element")
    unit = [_unpair(v, "unit coordinate") for v in unit]
    try:
        alg = FiniteAlgebra(dim, labels, items, unit)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"algebra validation failed: {exc}") from exc
    e = None
    if "idempotent_e" in doc:
        ecoords = doc["idempotent_e"]
        if not isinstance(ecoords, list) or len(ecoords) != dim:
            raise SchemaError("idempotent_e must list one coordinate per basis element")
        e = Element(alg, [_unpair(v, "idempotent coordinate") for v in ecoords])
    return alg, e


def algebra_fingerprint(alg, idempotent_e=None):
    return fingerprint(algebra_to_doc(alg, idempotent_e))


def save_algebra(path, alg, idempotent_e=None):
    return _write_json(path, algebra_to_doc(alg, idempotent_e))


def _write_json(path, doc):
    """Write a document as sorted, indented JSON and a final newline;
    returns the document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return doc


def _read_json(path):
    """The document in a JSON file.  Bytes that are not UTF-8, malformed
    JSON and nesting too deep for the parser all raise SchemaError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc


def load_algebra(path):
    return algebra_from_doc(_read_json(path))


def load_triangular(path):
    """Load an algebra file that carries its splitting idempotent."""
    alg, e = load_algebra(path)
    if e is None:
        raise SchemaError("algebra file has no idempotent_e; cannot split")
    try:
        return TriangularAlgebra(alg, e)
    except ValueError as exc:
        raise SchemaError(f"triangularity validation failed: {exc}") from exc


def map_to_doc(phi, algebra_fpr):
    return {
        "schema": MAP_SCHEMA,
        "algebra_fingerprint": algebra_fpr,
        "coeffs": [[i, j, k] + _pair(v) for (i, j, k, v) in phi.items()],
    }


def save_map(path, phi, algebra_fpr):
    return _write_json(path, map_to_doc(phi, algebra_fpr))


def load_map(path, alg, expected_fpr):
    """Load a map file bound to the given algebra.

    expected_fpr is the fingerprint of the algebra document the caller
    loaded; a mismatch raises FingerprintMismatch before any coefficient
    is interpreted.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("map document must be an object")
    if doc.get("schema") != MAP_SCHEMA:
        raise SchemaError(f"unsupported map schema {doc.get('schema')!r}")
    fpr = doc.get("algebra_fingerprint")
    if fpr != expected_fpr:
        raise FingerprintMismatch(
            f"map was written for algebra {str(fpr)[:12]}..., "
            f"given algebra is {expected_fpr[:12]}...")
    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list):
        raise SchemaError("coeffs must be a list")
    items = {}
    for row in coeffs:
        if not isinstance(row, list) or len(row) != 5:
            raise SchemaError("coeff rows must be [i, j, k, num, den]")
        i, j, k = row[:3]
        if not all(_is_int(x) and 0 <= x < alg.dim for x in (i, j, k)):
            raise SchemaError(f"coeff indices ({i},{j},{k}) out of range")
        if (i, j, k) in items:
            raise SchemaError(f"duplicate coefficient at ({i},{j},{k})")
        items[(i, j, k)] = _unpair(row[3:], "coefficient")
    return BilinearMap(alg, items)


def load_poset(path):
    """Poset from JSON {"size": n, "covers": [[a, b], ...]}.

    The reflexive-transitive closure is computed on load; covers may be any
    generating set of relations, not necessarily minimal.  A connected poset
    on n elements needs at least n - 1 relations, so a larger size raises
    Disconnected before the (size+1)² closure is allocated.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("poset document must be an object")
    size = doc.get("size")
    if not _is_int(size) or size < 1:
        raise SchemaError("size must be a positive integer")
    covers = doc.get("covers")
    if not isinstance(covers, list):
        raise SchemaError("covers must be a list of [a, b] pairs")
    pairs = []
    for row in covers:
        if (not isinstance(row, list) or len(row) != 2
                or not all(_is_int(x) for x in row)):
            raise SchemaError("covers must be a list of [a, b] pairs")
        pairs.append((row[0], row[1]))
    if size > len(pairs) + 1:
        raise Disconnected("poset comparability graph is not connected")
    try:
        return Poset(size, pairs)
    except ValueError as exc:
        raise SchemaError(f"poset validation failed: {exc}") from exc
