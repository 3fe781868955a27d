"""File formats: canonical bytes out, strict parsing in, exports."""

import re
import tracemalloc

import pytest

import rotmaps.core
import rotmaps.io
from conftest import CORPUS
from rotmaps import (
    MalformedInputError,
    ParameterError,
    RotationMatrix,
    adjacency_from_rotation,
    build_shift,
    cartesian_rotation,
    cycle,
    validate,
)
from rotmaps.io import (
    format_adj,
    format_dot,
    format_json,
    format_perm,
    format_rot,
    parse_adj,
    parse_perm,
    parse_rot,
)

REFUSED = "is not a run of 1 to 18 ASCII digits"

TRIANGLE = RotationMatrix([[2, 3], [3, 1], [1, 2]])

C5_FILE = "5 2\n2 5\n3 1\n4 2\n5 3\n1 4\n"
K3_ADJ_FILE = "0,1,1\n1,0,1\n1,1,0\n"
TRIANGLE_PERM_FILE = (
    "3 2\n"
    "1 1 2 2\n"
    "1 2 3 1\n"
    "2 1 3 2\n"
    "2 2 1 1\n"
    "3 1 1 2\n"
    "3 2 2 1\n"
)


class TestRotFormat:
    def test_c5_bytes(self):
        assert format_rot(cycle(5)) == C5_FILE

    def test_parse(self):
        assert parse_rot(C5_FILE) == cycle(5)

    @pytest.mark.parametrize("name,rot", CORPUS[::6], ids=[n for n, _ in CORPUS[::6]])
    def test_round_trip(self, name, rot):
        text = format_rot(rot)
        assert parse_rot(text) == rot
        assert format_rot(parse_rot(text)) == text

    @pytest.mark.parametrize("text", [
        "",                               # empty
        "5\n",                            # short header
        "2 1 9\n2\n1\n",                  # long header
        "3 2\n2 3\n3 1\n",                # missing row
        "2 1\n2\n1\n\n",                  # trailing blank line
        "2 1\n2 1\n1\n",                  # wrong arity
        "2 1\nx\n1\n",                    # not an integer
        "2 1\n3\n1\n",                    # vertex out of range
        "0 1\n",                          # nonpositive header
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(MalformedInputError):
            parse_rot(text)

    @pytest.mark.parametrize("text,message", [
        ("2 1\n2 1\n1\n", "row 1: expected 1 entries, got 2"),
        ("3 2\n2 3 1\n3\n1 2\n", "row 1: expected 2 entries, got 3"),
        ("2 1\n2\n1 5\n", "row 2: expected 1 entries, got 2"),
        ("3 2\n2 3\n3 1\n1 x\n", f"row 3: 'x' {REFUSED}"),
        ("2 1\n|\n1\n", f"row 1: '|' {REFUSED}"),
        ("2 1\n3\n1\n", "vertex id 3 outside 1..2 in rotation table"),
        ("2 1\n2\n-99999999999999999999999\n", f"row 2: '-99999999999999999999999' {REFUSED}"),
        ("2 1\n+2\n1\n", f"row 1: '+2' {REFUSED}"),
        ("2 1\n1_0\n1\n", f"row 1: '1_0' {REFUSED}"),
        ("2 1\n2\n-1\n", f"row 2: '-1' {REFUSED}"),
        ("2 1\n\u0661\n1\n", f"row 1: '\u0661' {REFUSED}"),  # ARABIC-INDIC DIGIT ONE
        ("2 1\n\ud800\n1\n", f"row 1: '\\ud800' {REFUSED}"),  # a lone surrogate
        ("2 1\n0000000000000000002\n1\n", f"row 1: '0000000000000000002' {REFUSED}"),
        ("+2 1\n2\n1\n", f"header vertex count: '+2' {REFUSED}"),
    ])
    def test_first_malformed_row_named(self, text, message):
        with pytest.raises(MalformedInputError) as info:
            parse_rot(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["2  1\n 2 \n1\t\n", "2 1\r\n2\r\n1\r\n", "2 1\n2\n1",
                                      "2 1\n000000000000000002\n1\n", "2 1\n2\x0c1\n",
                                      "2\u30001\n2\n1\n", "2\x1f1\r2\v1\x1c",
                                      "2\xa01\x852\u20281\u2029"])
    def test_other_whitespace_accepted(self, text):
        assert parse_rot(text) == parse_rot(text.encode()) == RotationMatrix([[2], [1]])

    @pytest.mark.parametrize("data,offset", [(b"\xff", 0), (b"2 1\n2\n\xe9\n", 6),
                                             (b"2 1\n2\n1\n\xe2\x80", 8)])
    def test_bytes_that_are_not_utf8_are_malformed(self, data, offset):
        with pytest.raises(MalformedInputError, match=f"^byte {offset} is not UTF-8 text$") as info:
            parse_rot(data)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_invalid_map_rejected_by_default(self):
        with pytest.raises(MalformedInputError):
            parse_rot("2 1\n1\n2\n")  # self-loops

    def test_invalid_map_allowed_for_diagnostics(self):
        rot = parse_rot("2 1\n1\n2\n", require_valid_map=False)
        assert not validate(rot).is_valid_map


class TestAdjFormat:
    def test_k3_bytes(self):
        adj = adjacency_from_rotation(TRIANGLE)
        assert format_adj(adj) == K3_ADJ_FILE

    def test_round_trip(self):
        for name, rot in CORPUS[::9]:
            adj = adjacency_from_rotation(rot)
            text = format_adj(adj)
            assert parse_adj(text) == adj
            assert format_adj(parse_adj(text)) == text

    def test_parse_holds_one_uint8_matrix(self):
        # canonical text is read as bytes, one byte per cell: the encoded
        # text (2 n^2), the cells and one boolean check (n^2 each) peak at
        # 4 n^2 bytes; the int64 matrix took 11 n^2
        text = format_adj(adjacency_from_rotation(cycle(2000)))
        tracemalloc.start()
        try:
            parse_adj(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2000**2

    def test_no_final_newline_read_in_the_byte_pass(self):
        # the copy with its layout made canonical adds 1 n^2 bytes to the
        # canonical read: 5.0 n^2 measured, where re-joining its lines took
        # 6.0 n^2 and the cell-by-cell read before that 4.1 n^2, at 40 times
        # the time
        text = format_adj(adjacency_from_rotation(cycle(2000)))[:-1]
        assert traced_peak(lambda: parse_adj(text)) < 6 * 2000**2

    def test_text_past_the_vertex_limit_refused_before_any_array(self, monkeypatch):
        monkeypatch.setattr(rotmaps.io, "MAX_ADJ_VERTICES", 1000)
        text = format_adj(adjacency_from_rotation(cycle(1001)))

        def refused():
            with pytest.raises(ParameterError) as info:
                parse_adj(text)
            assert str(info.value) == (".adj text of 2004002 bytes is above the limit of "
                                       "2001000 bytes (1000 vertices)")

        assert traced_peak(refused) < 1e5  # the cells alone would be 10^6 bytes

    def test_crlf_text_at_the_vertex_limit_is_read(self, monkeypatch):
        monkeypatch.setattr(rotmaps.io, "MAX_ADJ_VERTICES", 30)
        adj = adjacency_from_rotation(cycle(30))
        assert parse_adj(format_adj(adj).replace("\n", "\r\n")) == adj

    @pytest.mark.parametrize("text", [
        "",
        "0,1\n1,0\n0,1\n",                # ragged (3 rows of 2)
        "0,2\n2,0\n",                     # not 0/1
        "0,1\n0,0\n",                     # not symmetric
        "1,1\n1,0\n",                     # nonzero diagonal
        "0,1,1\n1,0,1\n",                 # wrong row count
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(MalformedInputError):
            parse_adj(text)


class TestPermFormat:
    def test_triangle_bytes(self):
        assert format_perm(build_shift(TRIANGLE)) == TRIANGLE_PERM_FILE

    def test_round_trip(self):
        shift = build_shift(cycle(7))
        text = format_perm(shift)
        parsed = parse_perm(text)
        assert parsed.images.tolist() == shift.images.tolist()
        assert format_perm(parsed) == text

    @pytest.mark.parametrize("text", [
        "",
        "3 2\n1 1 2 2\n",                             # wrong line count
        TRIANGLE_PERM_FILE.replace("1 1 2 2", "1 1 2"),   # wrong arity
        TRIANGLE_PERM_FILE.replace("1 1 2 2", "1 1 9 9"),  # out of range
        TRIANGLE_PERM_FILE.replace("1 2 3 1", "1 1 3 1"),  # dart listed twice
        TRIANGLE_PERM_FILE.replace("2 2 1 1", "2 2 1 2"),  # not an involution
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(MalformedInputError):
            parse_perm(text)


    @pytest.mark.parametrize("old,new,message", [
        ("1 1 2 2", "1 1 2", "line 1: expected 'v i w j', got '1 1 2'"),
        ("2 1 3 2", "2 1 3 2 |", "line 3: expected 'v i w j', got '2 1 3 2 |'"),
        ("3 2 2 1", "3 2 2 1 7", "line 6: expected 'v i w j', got '3 2 2 1 7'"),
        ("3 1 1 2", "3 1 1 x", f"line 5: 'x' {REFUSED}"),
        ("1 1 2 2", "1 1 9 9", "line 1: dart out of range: '1 1 9 9'"),
        ("3 2 2 1", "3 2 2 99999999999999999999999",
         f"line 6: '99999999999999999999999' {REFUSED}"),
        ("1 1 2 2", "1 1 +2 2", f"line 1: '+2' {REFUSED}"),
        ("1 2 3 1", "1 2 3 1_0", f"line 2: '1_0' {REFUSED}"),
        ("2 1 3 2", "2 -1 3 2", f"line 3: '-1' {REFUSED}"),
        ("2 2 1 1", "2 2 1 \u0661", f"line 4: '\u0661' {REFUSED}"),
        ("3 1 1 2", "3 1 \ud800 2", f"line 5: '\\ud800' {REFUSED}"),
        ("3 2 2 1", "3 2 2 0000000000000000001", f"line 6: '0000000000000000001' {REFUSED}"),
        ("1 2 3 1", "1 1 3 1", "line 2: dart (1, 1) listed twice"),
        ("2 2 1 1", "2 2 1 2", "dart pairs do not form an involutive permutation"),
    ])
    def test_first_malformed_line_named(self, old, new, message):
        with pytest.raises(MalformedInputError) as info:
            parse_perm(TRIANGLE_PERM_FILE.replace(old, new))
        assert str(info.value) == message

    def test_other_whitespace_accepted(self):
        text = TRIANGLE_PERM_FILE.replace("\n", "\r\n").replace("2 1 3 2", "2  1 3\t2")
        assert parse_perm(text).images.tolist() == [4, 5, 6, 1, 2, 3]
        text = TRIANGLE_PERM_FILE.replace("2 1 3 2", "2 1 3 000000000000000002")
        assert parse_perm(text).images.tolist() == [4, 5, 6, 1, 2, 3]


# In .adj text, which has no spaces, "tab-separated" pads each cell with
# tabs and "padded" with spaces.
OTHER_LAYOUTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "tab-separated": lambda text: text.replace(" ", "\t").replace(",", "\t,\t"),
    "padded": lambda text: "".join(f"  {line.replace(' ', '   ').replace(',', ' , ')}\t\n"
                                   for line in text.splitlines()),
    "no-final-newline": lambda text: text[:-1],
}


# The .adj row reader only raises, so text that reads to its table was read
# in the byte pass, as .rot and .perm text always is; bytes read as text does.
@pytest.mark.parametrize("layout", OTHER_LAYOUTS)
def test_other_layouts_skip_the_row_readers(layout):
    rot = cartesian_rotation(cycle(12), cycle(10))
    shift = build_shift(rot)
    adj = adjacency_from_rotation(rot)
    for text in (str, str.encode):
        assert parse_rot(text(OTHER_LAYOUTS[layout](format_rot(rot)))) == rot
        parsed = parse_perm(text(OTHER_LAYOUTS[layout](format_perm(shift))))
        assert parsed.images.tolist() == shift.images.tolist()
        assert parse_adj(text(OTHER_LAYOUTS[layout](format_adj(adj)))) == adj


MEGABYTE_TOKEN = "7" * 10**6 + "x"  # not an integer, whatever digit limit int() has


@pytest.mark.parametrize("parse,text,start", [
    (parse_rot, f"2 1\n{MEGABYTE_TOKEN}\n1\n", "row 1: '777"),
    (parse_rot, f"2 1 {MEGABYTE_TOKEN}\n2\n1\n", "header must be 'n d', got '2 1 777"),
    (parse_perm, TRIANGLE_PERM_FILE.replace("1 2 3 1", f"1 2 3 {MEGABYTE_TOKEN}"),
     "line 2: '777"),
    (parse_perm, TRIANGLE_PERM_FILE.replace("1 2 3 1", f"1 2 3 1 {MEGABYTE_TOKEN}"),
     "line 2: expected 'v i w j', got '1 2 3 1 777"),
    (parse_perm, TRIANGLE_PERM_FILE.replace("1 2 3 1", "1 2 3 9" + " " * 10**6),
     "line 2: dart out of range: '1 2 3 9  "),
    (parse_adj, f"0,{MEGABYTE_TOKEN}\n1,0\n", "row 1: entry '777"),
], ids=["rot-entry", "header", "perm-entry", "perm-arity", "perm-range", "adj-entry"])
def test_a_megabyte_token_gives_a_short_message(parse, text, start):
    with pytest.raises(MalformedInputError) as info:
        parse(text)
    message = str(info.value)
    assert message.startswith(start) and "'..." in message and len(message.encode()) < 200


LONGEST_INT = "9" * 4300  # the most digits int() reads by default; the grammar refuses it
CUT = "'" + "9" * 80 + "'..."
TOP = "9" * 18  # the largest value a token holds


# a header of more than MAX_DARTS darts is refused before its rows are counted
@pytest.mark.parametrize("parse,text,error,start", [
    (parse_rot, f"2 1\n{LONGEST_INT}\n1\n", MalformedInputError, f"row 1: {CUT} {REFUSED}"),
    (parse_rot, f"{TOP} 1\n2\n1\n", ParameterError,
     f"rotation file of {TOP} vertices and degree 1 has {TOP} darts, above the limit of "),
    (parse_rot, f"2 {TOP}\n2\n1\n", ParameterError,
     f"rotation file of 2 vertices and degree {TOP} has {2 * int(TOP)} darts, above the limit of "),
    (parse_rot, f"-{LONGEST_INT} 1\n", MalformedInputError,
     f"header vertex count: '-{'9' * 79}'... {REFUSED}"),
    (parse_perm, f"{TOP} 1\n1 1 2 1\n", ParameterError,
     f"permutation file of {TOP} vertices and degree 1 has {TOP} darts, above the limit of "),
    # n*d has 36 digits
    (parse_perm, f"{TOP} {TOP}\n1 1 2 1\n", ParameterError,
     f"permutation file of {TOP} vertices and degree {TOP} has {int(TOP) ** 2} darts"),
    # up to 80 characters a token is quoted in full
    (parse_rot, f"2 1\n{'9' * 80}\n1\n", MalformedInputError, f"row 1: '{'9' * 80}' {REFUSED}"),
    (parse_rot, f"2 1\n{'9' * 81}\n1\n", MalformedInputError, f"row 1: {CUT} {REFUSED}"),
], ids=["rot-entry", "rot-rows", "rot-entries", "header", "perm-lines", "perm-lines-product",
        "80-digits", "81-digits"])
def test_a_long_number_gives_a_short_message(parse, text, error, start):
    with pytest.raises(error) as info:
        parse(text)
    message = str(info.value)
    assert message.startswith(start) and len(message.encode()) < 200


# Room for a few small objects, such as an error and its message, beside
# equal arrays: far below any array of the C400 x C250 reads.
SMALL = 2**16


def traced_peak(call):
    """Peak bytes tracemalloc sees while ``call()`` runs, whether it returns or raises."""
    tracemalloc.start()
    try:
        call()
    except MalformedInputError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.fixture(scope="module")
def torus_texts():
    """.rot and .perm text of C400 x C250: 10^5 vertices, 4*10^5 darts."""
    rot = cartesian_rotation(cycle(400), cycle(250))
    return {"rot": format_rot(rot), "perm": format_perm(build_shift(rot))}


def unreachable(*args):
    raise AssertionError("the text was read past its first line")


class TestHeaderDartLimit:
    # 10485761 * 2 darts is one pair above MAX_DARTS
    @pytest.mark.parametrize("parse,kind", [(parse_rot, "rotation"), (parse_perm, "permutation")],
                             ids=["rot", "perm"])
    @pytest.mark.parametrize("text", ["10485761 2\n2\n1\n", "  10485761\t2 \r\n2\r\n1\r\n",
                                      "010485761 2"],
                             ids=["canonical", "padded-crlf", "header-only"])
    def test_refused_before_the_text_is_read(self, monkeypatch, parse, kind, text):
        monkeypatch.setattr(rotmaps.io, "_scan", unreachable)  # every pass over a body starts here
        with pytest.raises(ParameterError) as info:
            parse(text)
        assert str(info.value) == (f"{kind} file of 10485761 vertices and degree 2 has 20971522 "
                                   "darts, above the limit of 20971520")

    # every header error is named from the first line, before the body is read
    @pytest.mark.parametrize("parse,kind,form", [(parse_rot, "rot", "n d"),
                                                 (parse_perm, "perm", "N d")],
                             ids=["rot", "perm"])
    @pytest.mark.parametrize("header,message", [
        ("", "header must be '{form}', got ''"),
        ("\n", "header must be '{form}', got ''"),
        ("+2 1", f"header vertex count: '+2' {REFUSED}"),
        ("0 1", "header values must be positive, got 0 1"),
        ("2 1 9", "header must be '{form}', got '2 1 9'"),
    ], ids=["empty-line", "blank-line", "plus", "zero", "three-tokens"])
    def test_header_errors_are_named_before_the_body_is_read(
            self, monkeypatch, torus_texts, parse, kind, form, header, message):
        text = torus_texts[kind]
        body = text[text.index("\n"):]  # the C400 x C250 rows, from the header's line end
        monkeypatch.setattr(rotmaps.io, "_scan", unreachable)
        with pytest.raises(MalformedInputError) as info:
            parse(header + body)
        assert str(info.value) == message.format(form=form)

    @pytest.mark.parametrize("parse,kind", [(parse_rot, "rotation"), (parse_perm, "permutation")],
                             ids=["rot", "perm"])
    def test_empty_text_is_malformed(self, parse, kind):
        with pytest.raises(MalformedInputError, match=f"^empty {kind} file$"):
            parse("")

    @pytest.mark.parametrize("parse,message", [
        (parse_rot, "header must be 'n d', got '10485761 2 1'"),
        (parse_perm, "header must be 'N d', got '10485761 2 1'"),
    ], ids=["rot", "perm"])
    def test_a_first_line_that_is_no_header_is_malformed(self, parse, message):
        with pytest.raises(MalformedInputError, match=f"^{message}$"):
            parse("10485761 2 1\n2\n1\n")

    @pytest.mark.parametrize("parse", [parse_rot, parse_perm], ids=["rot", "perm"])
    def test_a_header_split_over_two_lines_is_malformed(self, parse):
        with pytest.raises(MalformedInputError, match="^header must be"):
            parse("10485761\n2\n2\n1\n")


class TestCanonicalReadMemory:
    # Each bound sits above the peak measured on C400 x C250 (15 MB for
    # parse_rot, 30 MB for parse_perm) and below the 50 MB and 134 MB that a
    # token-by-token read of the same text takes, so a return to one fails.
    @pytest.mark.parametrize("kind,parse,bound", [("rot", parse_rot, 45e6),
                                                  ("perm", parse_perm, 65e6)])
    def test_peak_on_100k_vertices(self, torus_texts, kind, parse, bound):
        assert traced_peak(lambda: parse(torus_texts[kind])) < bound

    def test_perm_peak_under_40_mb(self, torus_texts):
        # the byte pass holds uint8 digits and uint32 values beside the
        # index of token ends, and the images are built for the scatter and
        # adopted: 30 MB, against 51 MB with int64 values and copied images
        assert traced_peak(lambda: parse_perm(torus_texts["perm"])) < 40e6

    @pytest.mark.parametrize("parse,text,message", [
        (parse_rot, "1000000000000 2" + C5_FILE[3:],
         "expected 1000000000000 rows after the header, got 5"),
        (parse_perm, "1000000000000 2" + TRIANGLE_PERM_FILE[3:],
         "expected 2000000000000 dart lines, got 6"),
    ])
    def test_header_claiming_1e12_rows_allocates_nothing_by_it(self, monkeypatch, parse, text,
                                                                message):
        # such a header is refused by MAX_DARTS first; with the limit raised,
        # the byte pass must still size nothing by the header's claim
        monkeypatch.setattr(rotmaps.core, "MAX_DARTS", 10**13)
        with pytest.raises(MalformedInputError) as info:
            parse(text)
        assert str(info.value) == message
        assert traced_peak(lambda: parse(text)) < 1e6

    @pytest.mark.parametrize("parse,text,message", [
        (parse_rot, "10485760 2" + C5_FILE[3:], "expected 10485760 rows after the header, got 5"),
        (parse_perm, "10485760 2" + TRIANGLE_PERM_FILE[3:], "expected 20971520 dart lines, got 6"),
    ], ids=["rot", "perm"])
    def test_header_claiming_max_darts_allocates_nothing_by_it(self, parse, text, message):
        with pytest.raises(MalformedInputError) as info:
            parse(text)
        assert str(info.value) == message
        assert traced_peak(lambda: parse(text)) < 1e6

    def test_tab_separated_perm_peaks_as_canonical(self, torus_texts):
        # the byte pass reads tabs where canonical text has spaces with the
        # same arrays; re-joining the lines first peaked at 1.16 times
        text = torus_texts["perm"]
        tabbed = text.replace(" ", "\t")
        canonical = traced_peak(lambda: parse_perm(text))
        assert traced_peak(lambda: parse_perm(tabbed)) < canonical + SMALL

    @pytest.mark.parametrize("kind,parse,name", [("rot", parse_rot, "row 100000"),
                                                 ("perm", parse_perm, "line 400000")],
                             ids=["rot", "perm"])
    def test_malformed_last_token_refused_within_the_good_peak(self, torus_texts, kind, parse,
                                                               name):
        # the rows before the bad token are read with the arrays of a good
        # read, and the error is named from them; a second reader of the
        # whole text took 5.6 bytes per text byte for .perm, against 4.8
        text = torus_texts[kind]
        bad = re.sub(r"\d+\n$", "x\n", text)
        with pytest.raises(MalformedInputError, match=f"^{name}: 'x' is not a run"):
            parse(bad)
        assert traced_peak(lambda: parse(bad)) < traced_peak(lambda: parse(text)) + SMALL


class TestCanonicalWriteMemory:
    # Each bound is a multiple of the written text, and sits above the peak
    # measured on C400 x C250 (3.1 times the text for format_rot, 4.1 times
    # for format_perm, 3.3 for format_dot and 3.0 for format_json) and below
    # what each writer took when it made Python objects per entry: 8.7 and
    # 11.9 times for a %-format of .rot and .perm over a tuple of Python
    # ints, 8.0 for the per-edge %-format of DOT and 10.9 for json.dumps
    # over nested lists, so a return to one fails.  The .perm bound is also
    # below the 5.2 times taken when np.take copied a uint32 table of darts
    # to intp.  The .rot and .perm peaks come while np.take gathers the
    # slots: the slot buffer beside the index, the read-only table of ids or
    # the table of each dart and its image.  A .perm line is the slots of
    # those two darts: one 8-byte word each on C300 x C300, 2.5 times its
    # text, and the 8-byte value slots of v and of i on C400 x C250.
    @pytest.mark.parametrize("kind,parse,write,bound", [
        ("rot", parse_rot, format_rot, 4.5),
        ("perm", parse_perm, format_perm, 5.0),
        ("rot", parse_rot, format_dot, 6.0),
        ("rot", parse_rot, format_json, 4.0),
    ])
    def test_peak_on_100k_vertices(self, torus_texts, kind, parse, write, bound):
        table = parse(torus_texts[kind])
        text = write(table)  # for .rot and .perm, the text just parsed
        assert traced_peak(lambda: write(table)) < bound * len(text)

    def test_one_word_perm_peak_on_90k_vertices(self):
        shift = build_shift(cartesian_rotation(cycle(300), cycle(300)))
        text = format_perm(shift)
        assert traced_peak(lambda: format_perm(shift)) < 3.5 * len(text)


class TestExports:
    def test_dot_triangle(self):
        assert format_dot(TRIANGLE) == (
            "graph G {\n"
            '  1 -- 2 [label="1|2"];\n'
            '  1 -- 3 [label="2|1"];\n'
            '  2 -- 3 [label="1|2"];\n'
            "}\n"
        )

    def test_dot_edge_count(self):
        text = format_dot(cycle(6))
        assert text.count(" -- ") == 6

    def test_json_triangle(self):
        assert format_json(TRIANGLE) == '{"n":3,"d":2,"rot":[[2,3],[3,1],[1,2]]}\n'

    def test_json_round_trips_through_stdlib(self):
        import json

        payload = json.loads(format_json(cycle(4)))
        assert payload == {"n": 4, "d": 2, "rot": [[2, 4], [3, 1], [4, 2], [1, 3]]}
