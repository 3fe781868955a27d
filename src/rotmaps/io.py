"""Plain-text file formats and exports.

Three canonical formats, all 1-indexed, LF line endings, no trailing blank
lines; writers emit them byte-exactly and parsers are strict, so
parse(format(x)) == x is a hard guarantee:

* ``.rot``:  header ``n d``, then n rows of d space-separated vertex ids.
* ``.adj``:  n rows of n comma-separated 0/1 digits.
* ``.perm``: header ``N d``, then N*d lines ``v i w j`` pairing darts.

Every .rot and .perm token is a run of 1 to 18 ASCII digits; leading
zeros are read, and any other token (``+7``, ``-1``, ``1_0``, a non-ASCII
digit, 19 digits or more) is malformed.  Canonical text is written and
read with no loop over its tokens or cells; other whitespace layouts
(tabs, padded tokens, no final newline, CRLF in .adj) are read after one
pass over their lines that re-joins the tokens.  A .perm line is written
as the slots of its two darts: one 8-byte word holding ``v i ``
right-aligned after NUL padding when ``len(str(N)) + len(str(d)) + 2 <= 8``,
and else the value slots of v and of i, each so padded.
Refused text is read row by row only to name its first malformed row, and
an error quotes at most 80 characters of a token or line.

A .rot or .perm header is read first, from the first line alone: every
header error, and a header ``n d`` that claims more than MAX_DARTS darts,
is refused before the rows are read and before any array is made.  So is
an ``.adj`` text longer than that of MAX_ADJ_VERTICES vertices with CRLF
line ends.

Plus one-way exports: DOT (undirected graph, each edge labeled with its two
ports) and JSON (``{"n":…,"d":…,"rot":[[…]]}``), written by the .rot writer
with a byte after each column that str.replace turns into their separators.
"""

from __future__ import annotations

import math
import re
from typing import NoReturn

import numpy as np

from .core import RotationMatrix, _adopt, _require_darts, to_full_form, validate
from .adjacency import MAX_ADJ_VERTICES, AdjacencyMatrix
from .exceptions import MalformedInputError, ParameterError
from .shift import ShiftPermutation, verify_unitary

__all__ = [
    "format_rot",
    "parse_rot",
    "format_adj",
    "parse_adj",
    "format_perm",
    "parse_perm",
    "format_dot",
    "format_json",
]


def _quote(token: str) -> str:
    """``repr`` of at most 80 characters of ``token``, for a one-line error message."""
    return repr(token) if len(token) <= 80 else f"{token[:80]!r}..."


def _number(token: str, what: str) -> int:
    """``token`` as an int, when it is a run of 1 to 18 ASCII digits, as every token must be."""
    if not (token.isascii() and token.isdigit() and len(token) <= 18):
        raise MalformedInputError(f"{what}: {_quote(token)} is not a run of 1 to 18 ASCII digits")
    return int(token)


# the line ends of str.splitlines, compiled on first use and not at import
_LINE_END = "[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]"


def _read_header(text: str, kind: str, form: str) -> tuple[int, int]:
    """The two positive header values of .rot or .perm text, read from its first line alone.

    Only the text up to the first line end is read, so every header error,
    and a header ``n d`` with n*d above MAX_DARTS, is refused before any
    pass over the body and before any array is made.
    """
    if not text:
        raise MalformedInputError(f"empty {kind} file")
    end = re.search(_LINE_END, text)
    line = text[:end.start() if end else len(text)]
    header = line.split(maxsplit=2)
    if len(header) != 2:
        raise MalformedInputError(f"header must be '{form}', got {_quote(line)}")
    n = _number(header[0], "header vertex count")
    d = _number(header[1], "header degree")
    if n < 1 or d < 1:
        raise MalformedInputError(f"header values must be positive, got {n} {d}")
    _require_darts(n * d, f"{kind} file of {n} vertices and degree {d}")
    return n, d


def _unsigned(top: int) -> type:
    """uint32 when it holds ``top``, else uint64."""
    return np.uint32 if top < 2**32 else np.uint64


def _slots(values: np.ndarray, end: int) -> np.ndarray:
    """Each value's text in a uint8 slot of 8 bytes, or a multiple of 8 past 7 digits.

    The digits sit right-aligned after NUL padding and before the byte
    ``end``, filled by repeated division by 10; a 0 shows no digit.
    """
    places = len(str(int(values.max())))
    slots = np.zeros((values.size, 8 * (places // 8 + 1)), dtype=np.uint8)
    slots[:, -1] = end
    for column in range(-2, -2 - places, -1):  # least significant place first
        shown = values != 0  # leading zeros stay NUL
        values, digit = np.divmod(values, 10)
        slots[:, column] = (digit + ord("0")) * shown
    return slots


def _format_rows(header: str, table: np.ndarray, ends: bytes = b"",
                 slots: np.ndarray | None = None) -> str:
    """``header`` then each row of a table, ``ends[k]`` after each entry of column k.

    By default ``ends`` is a space for each column but the last and ``\n``
    for the last.  Each entry is written as the row of uint8 ``slots`` it
    indexes, a text right-aligned after NUL padding in a multiple of 8
    bytes and ended by ``ends[0]``.  By default the table is positive and
    the slots are the texts of 0..top, its largest entry, each built once
    and gathered by value, with no loop over the cells.  Every caller's
    ``top`` is at most its number of cells (ids up to n, ports up to d),
    so those texts cost no more than the cells.  One gather lays the slots
    out after the NUL-padded header, the end bytes that differ from
    ``ends[0]`` are written over theirs, and one translate drops the
    padding.  The table and slots are freed once gathered, so a caller
    that passes them as temporaries lowers the peak.
    """
    rows, width = table.shape
    ends = np.frombuffer(ends or b" " * (width - 1) + b"\n", dtype=np.uint8)
    if slots is None:
        top = int(table.max())
        slots = _slots(np.arange(top + 1, dtype=_unsigned(top)), ends[0])
    head = f"{header}\n".encode("ascii")
    head = head.rjust(len(head) + -len(head) % 8, b"\0")  # cells start on a word; NULs go
    buf = bytearray(len(head) + table.size * slots.shape[1])
    buf[:len(head)] = head
    cells = np.frombuffer(buf, dtype=np.uint64, offset=len(head)).reshape(rows, width, -1)
    # every index is in range, and mode="clip" lets take write into out unbuffered
    np.take(slots.view(np.uint64), table, axis=0, out=cells, mode="clip")
    del slots, table  # each array goes once spent, which lowers the peak
    other = ends != ends[0]
    cells.view(np.uint8)[:, other, -1] = ends[other]
    del cells
    text = buf.translate(None, b"\0")
    del buf
    return text.decode("ascii")


def _canonical_table(data: bytes) -> np.ndarray | None:
    """The unsigned body rows of canonical .rot or .perm text, or None.

    Canonical text is a header ``a b`` and then rows of equally many runs of
    at most 18 digits, one space between runs and ``\n`` after each line;
    ``\r\n`` line ends are read as ``\n``.  Text with a byte above '9', as
    every non-ASCII byte is, is refused at once, so one uint8 comparison
    finds the bytes below '0' that end the tokens.  The token lengths are
    uint8; a length past 255 wraps, which the check that they sum to the
    digit bytes catches.  Each value is built by Horner's rule in uint32,
    or in uint64 when some token has more than 9 digits, from one uint8
    gather per digit place.  The gather's index is the array of token ends,
    moved in place, so besides it and the values each array of one element
    per token is uint8 and made once.  The header's layout is checked here
    and its values dropped: :func:`_read_header` reads them.
    """
    if b"\r" in data:  # a scan for '\r' costs far less than a replace that finds none
        data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.max() > ord("9"):
        return None
    ends = np.flatnonzero(buf < ord("0"))
    if ends.size < 3:
        return None
    lengths = np.empty(ends.size, dtype=np.uint8)  # one less than the gap between ends
    lengths[:1] = ends[:1] + 1
    np.subtract(ends[1:], ends[:-1], out=lengths[1:], casting="unsafe")
    lengths -= 1
    top = int(lengths.max())
    if lengths.min() < 1 or top > 18 or int(lengths.sum()) != buf.size - ends.size:
        return None  # an empty token, one of 19 digits or more (int64 holds 18), or a wrap
    seps = buf[ends]
    width = int(np.argmax(seps[2:] == ord("\n"))) + 1
    layout = np.array([ord(" ")] * (width - 1) + [ord("\n")], dtype=np.uint8)
    if (seps[:2].tolist() != [ord(" "), ord("\n")] or (ends.size - 2) % width
            or not (seps[2:].reshape(-1, width) == layout).all()):
        return None
    del seps
    values = np.zeros(ends.size, dtype=_unsigned(10**top - 1))
    digits = np.empty(ends.size, dtype=np.uint8)
    shown = np.empty(ends.size, dtype=bool)
    ends -= top  # the window index, moved one place right per digit place
    for place in range(top, 0, -1):
        # an index before the text is clipped to 0; its token is shorter than place
        np.take(buf, ends, out=digits, mode="clip")
        digits -= ord("0")
        np.greater_equal(lengths, place, out=shown)  # shorter tokens have no digit here
        digits *= shown
        values *= 10
        values += digits
        ends += 1
    return values[2:].reshape(-1, width)


def _read_table(text: str) -> np.ndarray | None:
    """The byte pass over .rot or .perm text, or else over the text with its lines re-joined.

    Both texts are encoded the same way, as UTF-8 with ``surrogatepass``.
    That encodes every code point, a lone surrogate too, so it cannot
    raise, and it puts every non-ASCII character above '9', where the byte
    pass refuses it.  The re-joined text is freed once encoded, before its
    byte pass runs.
    """
    read = _canonical_table(text.encode("utf-8", "surrogatepass"))
    if read is None:
        read = _canonical_table(_rejoin(text, " ").encode("utf-8", "surrogatepass"))
    return read


def _rejoin(text: str, sep: str) -> str:
    """``text`` with each line's tokens joined by ``sep`` and every line ended by ``\n``.

    This makes any whitespace layout of well-formed text canonical.  Each
    line is replaced in place, so only one list of lines is held at a time.
    """
    lines = text.splitlines()
    for k, line in enumerate(lines):
        lines[k] = sep.join(line.split())
    lines.append("")  # the final newline
    return "\n".join(lines)


def format_rot(rot: RotationMatrix) -> str:
    return _format_rows(f"{rot.num_vertices} {rot.degree}", rot.entries)


def _rot_rows(text: str, n: int, d: int) -> NoReturn:
    """Raise the error naming the first malformed body row of .rot text the byte pass refused."""
    rows = text.splitlines()[1:]
    if len(rows) != n:
        raise MalformedInputError(f"expected {n} rows after the header, got {len(rows)}")
    for number, line in enumerate(rows, start=1):
        parts = line.split()
        if len(parts) != d:
            raise MalformedInputError(f"row {number}: expected {d} entries, got {len(parts)}")
        what = f"row {number}"
        for part in parts:
            _number(part, what)
    raise MalformedInputError("malformed rotation file")


def parse_rot(text: str, *, require_valid_map: bool = True) -> RotationMatrix:
    """Strict parse of the .rot format.

    The header ``n d`` is read first, from the first line alone: a
    malformed header is refused with MalformedInputError, and one with n*d
    above MAX_DARTS with ParameterError, before the rows are read.  The
    text is then read in one pass over its bytes, after one pass over its
    lines when it is not canonical (tabs, padded tokens, no final newline).
    Text that pass refuses, or rows that are not n by d, are malformed,
    and the error names the first malformed row.  By default the parsed
    table must also be a valid map (that is part of the format contract);
    pass ``require_valid_map=False`` to get the raw table for diagnostic
    reporting.
    """
    n, d = _read_header(text, "rotation", "n d")
    rows = _read_table(text)
    if rows is None or rows.shape != (n, d):
        _rot_rows(text, n, d)
    table = rows.astype(np.int64)
    table.setflags(write=False)  # the map adopts the fresh table
    rot = RotationMatrix(table)
    if require_valid_map:
        report = validate(rot)
        if not report.is_valid_map:
            first = report.violations[0]  # a map defect: those come first
            raise MalformedInputError(f"file does not describe a valid rotation map: {first}")
    return rot


def format_adj(adj: AdjacencyMatrix) -> str:
    n = adj.order
    buf = np.full((n, 2 * n), ord(","), dtype=np.uint8)
    np.add(adj.matrix, ord("0"), out=buf[:, ::2], casting="unsafe")
    buf[:, -1] = ord("\n")
    return buf.tobytes().decode("ascii")


def _require_adj_size(size: int) -> None:
    """Refuse .adj text of ``size`` bytes when it is longer than the limit allows."""
    limit = 2 * MAX_ADJ_VERTICES**2 + MAX_ADJ_VERTICES  # CRLF text of the largest graph
    if size > limit:
        raise ParameterError(f".adj text of {size} bytes is above the limit of {limit} bytes "
                             f"({MAX_ADJ_VERTICES} vertices)")


def _adj_cells(text: str) -> np.ndarray | None:
    """The 0/1 cells of canonical .adj text as a read-only uint8 matrix, or None.

    Canonical text is n rows of 2n bytes: a digit in each even column, ','
    in each other column but the last, and '\n' in the last.  Each cell and
    the byte after it are read as one little-endian uint16, so one
    subtraction of b"0," (0x2C30) takes "0," and "1," to 0 and 1; adding
    0x2200 to the last column then takes "0\n" and "1\n" there to 0 and 1.
    Every other pair wraps past 1, so one max() checks each cell and
    separator at once.
    """
    if not text.isascii():
        return None
    n = math.isqrt(len(text) // 2)
    if n < 1 or len(text) != 2 * n * n:
        return None
    data = text.encode("ascii")
    pairs = np.frombuffer(data, dtype="<u2").reshape(n, n) - np.uint16(0x2C30)  # b"0,"
    del data  # freed before the cells are made, which lowers the peak
    pairs[:, -1] += np.uint16(0x2200)  # b"0\n" + 0x2200 is b"0,"
    if pairs.max() > 1:
        return None
    cells = pairs.astype(np.uint8)
    cells.setflags(write=False)  # the matrix adopts the fresh cells
    return cells


def _adj_rows(text: str) -> NoReturn:
    """Raise the error naming the first malformed row of .adj text the byte pass refused."""
    lines = text.splitlines()
    if not lines:
        raise MalformedInputError("empty adjacency file")
    n = len(lines)
    for number, line in enumerate(lines, start=1):
        parts = line.split(",")
        if len(parts) != n:
            raise MalformedInputError(
                f"row {number}: expected {n} comma-separated entries, got {len(parts)}")
        bad = next((t for t in map(str.strip, parts) if t not in ("0", "1")), None)
        if bad is not None:
            raise MalformedInputError(f"row {number}: entry {_quote(bad)} is not 0 or 1")
    raise MalformedInputError("malformed adjacency file")


def parse_adj(text: str) -> AdjacencyMatrix:
    """Strict parse of the .adj format (symmetry and zero diagonal enforced).

    Canonical text is read in one pass over its bytes.  Any other layout
    (CRLF, padded cells, no final newline) is read in that pass after one
    pass over its lines that drops their whitespace; only malformed text is
    then read row by row, which names the first malformed row.  Text longer
    than that of MAX_ADJ_VERTICES vertices is refused with ParameterError
    before any array is made.
    """
    _require_adj_size(len(text))
    cells = _adj_cells(text)
    if cells is None:
        cells = _adj_cells(_rejoin(text, ""))
    if cells is None:
        _adj_rows(text)
    return AdjacencyMatrix(cells)


def _dart_slots(n: int, d: int) -> np.ndarray:
    """The text ``v i `` of each dart (v, i) of a degree-d map on n vertices, in a uint8 slot.

    When ``len(str(n)) + len(str(d)) + 2 <= 8`` the slot is one 8-byte
    word: read as a little-endian word, the vertex slot shifted down by the
    width of the port's text moves its text that many bytes left, and OR-ed
    with the port slot makes the dart's; one broadcast does the ports of
    each digit count.  Otherwise the slot is the vertex's value slot and
    then the port's, each at its full width, written by two broadcasts.
    Row 0 is unused, so dart k (1-indexed) is row k.
    """
    vertices = _slots(np.arange(1, n + 1, dtype=np.uint32), ord(" ")).view("<u8")
    ports = _slots(np.arange(1, d + 1, dtype=np.uint32), ord(" ")).view("<u8")
    if len(str(n)) + len(str(d)) + 2 > 8:
        slots = np.zeros((1 + n * d, vertices.shape[1] + ports.shape[1]), dtype="<u8")
        grid = slots[1:].reshape(n, d, -1)
        grid[:, :, :vertices.shape[1]] = vertices[:, None]
        grid[:, :, vertices.shape[1]:] = ports
        return slots.view(np.uint8)
    words = np.zeros(1 + n * d, dtype="<u8")
    grid = words[1:].reshape(n, d)
    for places in range(1, len(str(d)) + 1):
        first, stop = 10 ** (places - 1) - 1, min(10**places - 1, d)  # columns of these ports
        np.right_shift(vertices, 8 * (places + 1), out=grid[:, first:stop])
        grid[:, first:stop] |= ports[first:stop, 0]
    return words.view(np.uint8).reshape(-1, 8)


def format_perm(shift: ShiftPermutation) -> str:
    """Canonical .perm text: each line is the text of a dart and then of its image.

    Each line is two gathered dart slots, dart k's and its image's, with
    ``\n`` over the second one's last byte.  Every array is passed as a
    temporary, so the writer frees it once gathered.
    """
    n, d = shift.num_vertices, shift.degree
    return _format_rows(f"{n} {d}", np.stack([np.arange(1, shift.size + 1), shift.images], axis=1),
                        b" \n", _dart_slots(n, d))


def _perm_lines(text: str, n: int, d: int) -> NoReturn:
    """Raise the error naming the first malformed dart line of .perm text the byte pass refused."""
    lines = text.splitlines()[1:]
    if len(lines) != n * d:
        raise MalformedInputError(f"expected {n * d} dart lines, got {len(lines)}")
    seen = bytearray(n * d)
    for number, line in enumerate(lines, start=1):
        parts = line.split()
        if len(parts) != 4:
            raise MalformedInputError(f"line {number}: expected 'v i w j', got {_quote(line)}")
        what = f"line {number}"
        v, i, w, j = (_number(p, what) for p in parts)
        if not (1 <= v <= n and 1 <= i <= d and 1 <= w <= n and 1 <= j <= d):
            raise MalformedInputError(f"line {number}: dart out of range: {_quote(line)}")
        src = (v - 1) * d + i - 1
        if seen[src]:
            raise MalformedInputError(f"line {number}: dart ({v}, {i}) listed twice")
        seen[src] = 1
    raise MalformedInputError("malformed permutation file")


def parse_perm(text: str) -> ShiftPermutation:
    """Strict parse of the .perm format; the pairs must form an involutive permutation.

    The header ``N d`` is read first, from the first line alone: a
    malformed header is refused with MalformedInputError, and one with N*d
    above MAX_DARTS with ParameterError, before the dart lines are read.
    The text is then read in one pass over its bytes, after one pass over
    its lines when it is not canonical.  Text that pass refuses, other than
    N*d lines of four tokens, or darts out of range or listed twice, is
    malformed, and the error names the first malformed line.
    """
    n, d = _read_header(text, "permutation", "N d")
    darts = _read_table(text)
    images = None
    if darts is not None:
        darts -= 1  # unsigned: a 0 wraps above every bound
        if darts.shape == (n * d, 4) and all(
                darts[:, k].max() < bound for k, bound in enumerate((n, d, n, d))):
            # intp from here: the scatter takes its index without a copy
            src = np.multiply(darts[:, 0], d, dtype=np.intp, casting="unsafe")
            np.add(src, darts[:, 1], out=src, dtype=np.intp, casting="unsafe")
            dst = np.multiply(darts[:, 2], d, dtype=np.int64, casting="unsafe")
            np.add(dst, darts[:, 3], out=dst, dtype=np.int64, casting="unsafe")
            dst += 1
            del darts
            images = np.zeros(n * d, dtype=np.int64)
            images[src] = dst
            del src, dst
    # one line per dart, so an unset image means some dart was listed twice
    if images is None or not images.all():
        _perm_lines(text, n, d)
    shift = _adopt(ShiftPermutation, num_vertices=n, degree=d, images=images)  # checked above
    if not verify_unitary(shift):
        raise MalformedInputError("dart pairs do not form an involutive permutation")
    return shift


def format_dot(rot: RotationMatrix) -> str:
    """Undirected DOT graph; each edge carries its two ports as label "i|j".

    The lower-numbered endpoint's port comes first.
    """
    n, d = rot.entries.shape
    edges = np.stack([np.repeat(np.arange(1, n + 1), d), rot.entries.ravel(),
                      np.tile(np.arange(1, d + 1), n), to_full_form(rot).ravel()], axis=1)
    edges = edges[edges[:, 0] < edges[:, 1]]  # the table of all darts goes before the gather
    text = _format_rows("", edges, b"\1\2\3\4")
    del edges
    for end, between in zip("\1\2\3\4", (" -- ", ' [label="', "|", '"];\n  ')):
        text = text.replace(end, between)
    return f"graph G {{\n  {text[1:-2]}}}\n"  # less the empty header's "\n" and the last "  "


def format_json(rot: RotationMatrix) -> str:
    text = _format_rows("", rot.entries, b"," * (rot.degree - 1) + b"\n").replace("\n", "],[")
    # text is "],[" and then each row, its entries comma-separated and ended by "],["
    return f'{{"n":{rot.num_vertices},"d":{rot.degree},"rot":[{text[2:-2]}]}}\n'
