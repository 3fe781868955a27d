"""Plain-text file formats and exports.

Three canonical formats, all 1-indexed, LF line endings, no trailing blank
lines; writers emit them byte-exactly and parsers are strict, so
parse(format(x)) == x is a hard guarantee:

* ``.rot``:  header ``n d``, then n rows of d space-separated vertex ids.
* ``.adj``:  n rows of n comma-separated 0/1 digits.
* ``.perm``: header ``N d``, then N*d lines ``v i w j`` pairing darts.

The readers take bytes or str; one byte table, ``_KIND``, holds the layout
grammar of all three.  A .rot or .perm token is a run of 1 to 18 ASCII
digits, leading zeros read.  A header is read from its first line alone,
so a header error, or a header ``n d`` of more than MAX_DARTS darts, is
refused before any array is made, as is .adj text longer than
MAX_ADJ_VERTICES allows.  A body is read, or its first defect named, in
one pass over its bytes, in any layout.  An error quotes at most 80
characters of a token or line.

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

# The layout grammar: the ASCII whitespace of str.split separates tokens, or
# ends a line where str.splitlines does.  _KIND classes each non-digit byte.
_SEPARATORS = b" \t\x1f"
_LINE_ENDS = b"\n\r\v\f\x1c\x1d\x1e"
_LINE, _OTHER = 1, 2
_KIND = bytes(0 if b in _SEPARATORS else _LINE if b in _LINE_ENDS else _OTHER for b in range(256))
_LINE_END = b"[" + re.escape(_LINE_ENDS) + b"]"  # compiled on first use, not at import
_TOKEN = b"[^" + re.escape(_SEPARATORS) + b"]+"
_TO_LF = bytes.maketrans(_LINE_ENDS, b"\n" * len(_LINE_ENDS))
# The rest of that whitespace is outside ASCII.  NEL, U+2028 and U+2029 end
# lines, as VT: an LF would join a CR before it into one line end.
_NON_ASCII_SPACE = str.maketrans(
    "\x85\u2028\u2029\xa0\u1680\u202f\u205f\u3000" + "".join(map(chr, range(0x2000, 0x200B))),
    "\v" * 3 + " " * 16)


def _ascii(text: bytes | str) -> tuple[bytes, bytes | str]:
    """``text`` as ASCII bytes, one per character, and the text an error message quotes.

    CRLF is made LF in both, and the bytes end with a line end.  Text with a byte above 0x7f is
    decoded as strict UTF-8, ``_NON_ASCII_SPACE`` maps its whitespace, and the rest becomes '?'.
    """
    if text.isascii():  # a scan for CR costs far less than a replace that finds none
        data = text.encode("ascii") if isinstance(text, str) else text
        source = data = data.replace(b"\r\n", b"\n") if b"\r" in data else data
    else:
        try:
            source = (text if isinstance(text, str) else text.decode("utf-8")).replace("\r\n", "\n")
        except UnicodeDecodeError as exc:
            raise MalformedInputError(f"byte {exc.start} is not UTF-8 text") from exc
        data = source.translate(_NON_ASCII_SPACE).encode("ascii", "replace")
    if data and data[-1] not in _LINE_ENDS:
        data += b"\n"
    return data, source


def _quote(token: bytes | str) -> str:
    """``repr`` of at most 80 characters of ``token``, ASCII bytes read as text, for an error."""
    token = token.decode("ascii") if isinstance(token, bytes) else token
    return repr(token) if len(token) <= 80 else f"{token[:80]!r}..."


def _not_a_number(token: bytes | str, what: str) -> MalformedInputError:
    """The error for a token that is not a run of 1 to 18 ASCII digits, as every token must be."""
    return MalformedInputError(f"{what}: {_quote(token)} is not a run of 1 to 18 ASCII digits")


def _read_header(text: bytes | str, kind: str, form: str):
    """``_ascii(text)``, and the two positive values on its first line and its body's offset."""
    data, source = _ascii(text)
    if not data:
        raise MalformedInputError(f"empty {kind} file")
    stop = re.search(_LINE_END, data).start()  # the bytes end with a line end
    tokens = (source[m.start():m.end()] for m in re.finditer(_TOKEN, data[:stop]))
    header = [token for _, token in zip(range(3), tokens)]
    if len(header) != 2:
        raise MalformedInputError(f"header must be '{form}', got {_quote(source[:stop])}")
    for token, what in zip(header, ("header vertex count", "header degree")):
        if not (token.isascii() and token.isdigit() and len(token) <= 18):
            raise _not_a_number(token, what)
    n, d = map(int, header)
    if n < 1 or d < 1:
        raise MalformedInputError(f"header values must be positive, got {n} {d}")
    _require_darts(n * d, f"{kind} file of {n} vertices and degree {d}")
    return data, source, n, d, stop + 1


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


def _scan(buf: np.ndarray):
    """The offset of each byte of a body that is no digit, and the count of digits before it."""
    stops = np.flatnonzero(buf - np.uint8(ord("0")) > 9)  # the digits go to 0..9, the rest above
    gaps = np.empty(stops.size, dtype=np.uint8)
    gaps[:1] = stops[:1]
    np.subtract(stops[1:], stops[:-1], out=gaps[1:], casting="unsafe")
    gaps[1:] -= 1
    if stops.size and int(gaps.sum()) != stops[-1] + 1 - stops.size:  # a uint8 count wrapped
        gaps = np.minimum(np.diff(stops, prepend=-1) - 1, 255).astype(np.uint8)
    return stops, gaps


def _lines(buf: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which stops of a body are of no class of the grammar, and the stop ending each line."""
    kinds = np.frombuffer(buf[stops].tobytes().translate(_KIND), dtype=np.uint8)
    return kinds == _OTHER, np.flatnonzero(kinds == _LINE)


def _first(mask: np.ndarray) -> int:
    """The index of the first True in ``mask``, or its size when there is none."""
    return int(np.argmax(np.append(mask, True)))


def _line(data: bytes, source, start: int, k: int) -> str:
    """Body line ``k`` (from 0) less its line end, quoted, from a pass of its own."""
    buf = np.frombuffer(data, dtype=np.uint8)[start:]
    stops = _scan(buf)[0]
    ends = _lines(buf, stops)[1]
    first = stops[ends[k - 1]] + 1 if k else 0
    return _quote(source[start + first:start + stops[ends[k]]])


def _canonical_table(data: bytes, start: int, source, shape: tuple[int, int], what: str,
                     lines: str, miscount) -> tuple[np.ndarray, MalformedInputError | None]:
    """The rows of a body, ``data[start:]``, as an unsigned table up to its first defect, and that.

    Canonical text (a space after each token but a row's last) is read at
    once, any other layout after :func:`_lines`, which names the first
    defect a line-by-line read meets: a wrong number of ``lines``, of a
    row's tokens (``miscount(row, count)``), or a token that is no run of 1
    to 18 digits.  Values are built by Horner's rule, one gather per place.
    """
    rows, width = shape
    buf = np.frombuffer(data, dtype=np.uint8)[start:]
    stops, gaps = _scan(buf)
    row, error = rows, None
    if not (stops.size == rows * width and gaps.min() >= 1 and gaps.max() <= 18 and (
            buf[stops].reshape(rows, width) == bytearray(b" " * (width - 1) + b"\n")).all()):
        other, ends = _lines(buf, stops)
        if ends.size != rows:
            raise MalformedInputError(f"expected {rows} {lines}, got {ends.size}")
        token = min(_first(gaps > 18), _first(other))
        token += _first(~other[token:])  # the end of the first token that is no run of digits
        blank = gaps == 0  # the stops that end no token
        blank[1:] &= ~other[:-1]
        blank |= other
        del other
        counts = np.empty_like(ends)  # the tokens of each line
        counts[0] = ends[0] + 1
        np.subtract(ends[1:], ends[:-1], out=counts[1:])
        np.subtract.at(counts, np.searchsorted(ends, np.flatnonzero(blank)), 1)
        row = min(_first(counts != width), int(np.searchsorted(ends, token)))
        if row < rows and counts[row] != width:
            error = MalformedInputError(miscount(row + 1, counts[row]))
        elif row < rows:  # the token runs back to a separator or line end, the header's at least
            end = start + stops[token]
            first = max(data.rfind(byte, start - 1, end) for byte in _SEPARATORS + _LINE_ENDS) + 1
            error = _not_a_number(source[first:end], f"{what} {row + 1}")
        cut = ends[row - 1] + 1 if row else 0
        del ends, counts
        stops, gaps, blank = stops[:cut], gaps[:cut], blank[:cut]
        if blank.any():
            stops, gaps = stops[~blank], gaps[~blank]
        del blank  # each array goes once spent, which lowers the peak
    top = int(gaps.max(initial=0))
    values = np.zeros(stops.size, dtype=_unsigned(10**top - 1))
    digits, shown = np.empty(stops.size, dtype=np.uint8), np.empty(stops.size, dtype=bool)
    stops -= top  # the window index, moved one place right per digit place
    for place in range(top, 0, -1):
        # an index before the text is clipped to 0; its token is shorter than place
        np.take(buf, stops, out=digits, mode="clip")
        digits -= ord("0")
        np.greater_equal(gaps, place, out=shown)  # shorter tokens have no digit here
        digits *= shown
        values *= 10
        values += digits
        stops += 1
    return values.reshape(row, width), error


def format_rot(rot: RotationMatrix) -> str:
    return _format_rows(f"{rot.num_vertices} {rot.degree}", rot.entries)


def parse_rot(text: bytes | str, *, require_valid_map: bool = True) -> RotationMatrix:
    """Strict parse of the .rot format.

    A malformed header is refused with MalformedInputError, and one with
    n*d above MAX_DARTS with ParameterError, from the first line alone; a
    body other than n rows of d runs of digits is malformed.  The table
    must also be a valid map, unless ``require_valid_map=False`` asks for
    the raw table for diagnostic reporting.
    """
    data, source, n, d, start = _read_header(text, "rotation", "n d")
    rows, error = _canonical_table(
        data, start, source, (n, d), "row", "rows after the header",
        lambda row, count: f"row {row}: expected {d} entries, got {count}")
    del data, source  # an encoded copy goes before the table is checked
    if error is not None:
        raise error
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


def _adj_cells(text: bytes | str) -> np.ndarray | None:
    """The 0/1 cells of canonical .adj text or bytes as a read-only uint8 matrix, or None.

    Canonical text is n rows of 2n bytes: a digit in each even column, ','
    in each other column but the last, and '\n' in the last.  Each cell and
    the byte after it are one little-endian uint16, so one subtraction of
    b"0," (0x2C30), and of b"0\n" in the last column, takes each to 0 or 1
    and every other pair past 1, which one max() finds.
    """
    n = math.isqrt(len(text) // 2)
    if n < 1 or len(text) != 2 * n * n or not text.isascii():
        return None
    data = text.encode("ascii") if isinstance(text, str) else text
    pairs = np.frombuffer(data, dtype="<u2").reshape(n, n) - np.uint16(0x2C30)  # b"0,"
    del data  # an encoded copy goes before the cells are made, which lowers the peak
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
    for number, line in enumerate(lines, start=1):
        parts = line.split(",")
        if len(parts) != len(lines):
            raise MalformedInputError(
                f"row {number}: expected {len(lines)} comma-separated entries, got {len(parts)}")
        bad = next((t for t in map(str.strip, parts) if t not in ("0", "1")), None)
        if bad is not None:
            raise MalformedInputError(f"row {number}: entry {_quote(bad)} is not 0 or 1")
    raise MalformedInputError("malformed adjacency file")


def parse_adj(text: bytes | str) -> AdjacencyMatrix:
    """Strict parse of the .adj format (symmetry and zero diagonal enforced).

    Canonical text is read in one pass over its bytes, any other layout once
    the byte table has made its line ends LF and dropped its separators, and
    malformed text row by row, to name its first malformed row.
    """
    _require_adj_size(len(text))
    cells = _adj_cells(text)
    if cells is None:
        cells = _adj_cells(_ascii(text)[0].translate(_TO_LF, _SEPARATORS))
        if cells is None:
            _adj_rows(text if isinstance(text, str) else text.decode("utf-8"))
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


def parse_perm(text: bytes | str) -> ShiftPermutation:
    """Strict parse of the .perm format; the pairs must form an involutive permutation.

    The header ``N d`` is read as :func:`parse_rot` reads ``n d``.  A body
    other than N*d lines of four runs of digits, or with darts out of range
    or listed twice, is malformed, and the error names its first defect.
    """
    data, source, n, d, start = _read_header(text, "permutation", "N d")
    darts, error = _canonical_table(
        data, start, source, (n * d, 4), "line", "dart lines",
        lambda row, _: f"line {row}: expected 'v i w j', got {_line(data, source, start, row - 1)}")
    darts -= 1  # unsigned: a 0 wraps above every bound
    out = [darts[:, k] >= bound for k, bound in enumerate((n, d, n, d))
           if darts[:, k].max(initial=0) >= bound]
    last = _first(np.logical_or.reduce(out)) if out else len(darts)  # the first line out of range
    # intp from here: the scatter takes its index without a copy
    src = np.multiply(darts[:last, 0], d, dtype=np.intp, casting="unsafe")
    np.add(src, darts[:last, 1], out=src, dtype=np.intp, casting="unsafe")
    if last == n * d:  # every line read and in range
        dst = np.multiply(darts[:, 2], d, dtype=np.int64, casting="unsafe")
        np.add(dst, darts[:, 3], out=dst, dtype=np.int64, casting="unsafe")
        dst += 1
        del darts
        images = np.zeros(n * d, dtype=np.int64)
        images[src] = dst
        del dst
        # one line per dart, so an unset image means some dart was listed twice
        if images.all():
            shift = _adopt(ShiftPermutation, num_vertices=n, degree=d, images=images)  # as checked
            if not verify_unitary(shift):
                raise MalformedInputError("dart pairs do not form an involutive permutation")
            return shift
    order = np.argsort(src, kind="stable")  # a line whose dart an earlier line listed
    twice = order[1:][np.diff(src[order]) == 0]
    if twice.size:
        k = int(twice.min())
        v, i = divmod(int(src[k]), d)
        raise MalformedInputError(f"line {k + 1}: dart ({v + 1}, {i + 1}) listed twice")
    if out:
        raise MalformedInputError(f"line {last + 1}: dart out of range: "
                                  f"{_line(data, source, start, last)}")
    raise error


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
