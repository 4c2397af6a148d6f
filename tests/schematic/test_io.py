"""Round-trip tests for the two vendor file formats."""

import random

import pytest

from cadinterop.common.geometry import Point
from cadinterop.schematic import io_cd, io_vl
from cadinterop.schematic.io_cd import CDFormatError
from cadinterop.schematic.io_vl import VLFormatError
from cadinterop.schematic.model import LibrarySet, SchematicError
from cadinterop.schematic.netlist import extract
from cadinterop.schematic.samples import (
    build_sample_schematic,
    build_vl_libraries,
    generate_chain_schematic,
)


@pytest.fixture
def vl_libs():
    return build_vl_libraries()


@pytest.fixture
def sample(vl_libs):
    return build_sample_schematic(vl_libs)


def schematics_equal(a, b):
    """Structural equality good enough for round-trip checking."""
    assert a.name == b.name and a.dialect == b.dialect
    assert [(p.name, p.direction) for p in a.ports] == [
        (p.name, p.direction) for p in b.ports
    ]
    assert a.properties.as_dict() == b.properties.as_dict()
    assert len(a.pages) == len(b.pages)
    for page_a, page_b in zip(a.pages, b.pages):
        assert page_a.frame == page_b.frame
        assert len(page_a.instances) == len(page_b.instances)
        for ia, ib in zip(page_a.instances, page_b.instances):
            assert ia.name == ib.name
            assert ia.symbol.full_name == ib.symbol.full_name
            assert ia.transform == ib.transform
            assert ia.properties.as_dict() == ib.properties.as_dict()
        assert [(w.label, w.points) for w in page_a.wires] == [
            (w.label, w.points) for w in page_b.wires
        ]
        assert [(l.text, l.position, l.height) for l in page_a.labels] == [
            (l.text, l.position, l.height) for l in page_b.labels
        ]
    # Connectivity-level equality too.
    assert extract(a).signature() == extract(b).signature()


class TestVLRoundTrip:
    def test_library_roundtrip(self, vl_libs):
        lib = vl_libs.library("vl_prims")
        text = io_vl.dump_library(lib)
        loaded = io_vl.load_library(text)
        assert len(loaded) == len(lib)
        nand = loaded.get("nand2")
        assert nand.pin("A").position == lib.get("nand2").pin("A").position
        assert nand.kind == "component"

    def test_schematic_roundtrip(self, vl_libs, sample):
        text = io_vl.dump_schematic(sample)
        loaded = io_vl.load_schematic(text, vl_libs)
        schematics_equal(sample, loaded)

    def test_names_with_spaces_and_specials(self, vl_libs, sample):
        sample.properties.set("note", "two words & <brackets>")
        text = io_vl.dump_schematic(sample)
        loaded = io_vl.load_schematic(text, vl_libs)
        assert loaded.properties.get("note") == "two words & <brackets>"

    def test_typed_properties_roundtrip(self, vl_libs, sample):
        sample.properties.set("count", 42)
        sample.properties.set("ratio", 2.5)
        sample.properties.set("flag", True)
        loaded = io_vl.load_schematic(io_vl.dump_schematic(sample), vl_libs)
        assert loaded.properties.get("count") == 42
        assert loaded.properties.get("ratio") == 2.5
        assert loaded.properties.get("flag") is True

    def test_comments_and_blanks_ignored(self, vl_libs, sample):
        text = "# header comment\n\n" + io_vl.dump_schematic(sample)
        loaded = io_vl.load_schematic(text, vl_libs)
        assert loaded.name == sample.name

    def test_missing_header(self, vl_libs):
        with pytest.raises(VLFormatError):
            io_vl.load_schematic("PAGE 1 0 0 1 1\nEND\n", vl_libs)

    def test_missing_end(self, vl_libs, sample):
        text = io_vl.dump_schematic(sample).replace("\nEND\n", "\n")
        with pytest.raises(VLFormatError):
            io_vl.load_schematic(text, vl_libs)

    def test_unknown_master_rejected(self, sample):
        text = io_vl.dump_schematic(sample)
        with pytest.raises(SchematicError):
            io_vl.load_schematic(text, LibrarySet())

    def test_wire_count_mismatch(self, vl_libs):
        text = "VLSCHEM 1 c viewdraw-like\nPAGE 1 0 0 10 10\nW - 2 0 0\nENDPAGE\nEND\n"
        with pytest.raises(VLFormatError):
            io_vl.load_schematic(text, vl_libs)

    def test_wire_label_anchor_is_optional(self, vl_libs):
        head = "VLSCHEM 1 c viewdraw-like\nPAGE 1 0 0 100 100\n"
        for record, anchor in (
            ("W N1 2 0 0 40 0", None),
            ("W N1 2 0 0 40 0 @ 17 3", Point(17, 3)),
        ):
            loaded = io_vl.load_schematic(f"{head}{record}\nENDPAGE\nEND\n", vl_libs)
            assert loaded.pages[0].wires[0].label_position == anchor
        for record in ("W N1 2 0 0 40 0 @ 17", "W N1 2 0 0 40 0 at 17 3"):
            with pytest.raises(VLFormatError, match="anchor"):
                io_vl.load_schematic(f"{head}{record}\nENDPAGE\nEND\n", vl_libs)


class TestVLWireRecordErrors:
    """Malformed ``W`` records fail typed, with the record and its line."""

    HEAD = "VLSCHEM 1 c viewdraw-like\n# a comment line\nPAGE 1 0 0 100 100\n"

    @pytest.mark.parametrize("record,reason", [
        ("W - 2 0 0 30 40", "not Manhattan"),
        ("W - 1 0 0", "at least two points"),
        ("W - 2 5 5 5 5", "two distinct points"),
        ("W - two 0 0 30 0", "invalid literal"),
        ("W - 2 0 0 30 0 @ x 3", "invalid literal"),
        ("W -", "missing field"),
        ("W", "missing field"),
    ], ids=["non-manhattan", "single-point", "coincident-points", "non-integer-count",
            "non-integer-anchor", "missing-count", "missing-label"])
    def test_bad_wire_record(self, vl_libs, record, reason):
        text = f"{self.HEAD}{record}\nENDPAGE\nEND\n"
        with pytest.raises(VLFormatError, match=reason) as caught:
            io_vl.load_schematic(text, vl_libs)
        assert f"line 4: bad wire record {record!r}" in str(caught.value)


class TestCDRoundTrip:
    def test_library_roundtrip(self, vl_libs):
        lib = vl_libs.library("vl_builtin")
        text = io_cd.dump_library(lib)
        loaded = io_cd.load_library(text)
        assert len(loaded) == len(lib)
        assert loaded.get("offPage").kind == "offpage_connector"

    def test_schematic_roundtrip(self, vl_libs, sample):
        text = io_cd.dump_schematic(sample)
        loaded = io_cd.load_schematic(text, vl_libs)
        schematics_equal(sample, loaded)

    def test_quoted_strings(self, vl_libs, sample):
        sample.properties.set("note", 'he said "hi"')
        loaded = io_cd.load_schematic(io_cd.dump_schematic(sample), vl_libs)
        assert loaded.properties.get("note") == 'he said "hi"'

    def test_typed_properties_roundtrip(self, vl_libs, sample):
        sample.properties.set("count", 42)
        sample.properties.set("flag", False)
        loaded = io_cd.load_schematic(io_cd.dump_schematic(sample), vl_libs)
        assert loaded.properties.get("count") == 42
        assert loaded.properties.get("flag") is False

    def test_wrong_head_rejected(self, vl_libs):
        with pytest.raises(CDFormatError):
            io_cd.load_schematic('(library "x")', vl_libs)

    def test_garbage_rejected(self, vl_libs):
        with pytest.raises(CDFormatError):
            io_cd.load_schematic("(schematic", vl_libs)

    def test_wire_label_anchor_is_optional(self, vl_libs):
        def page(wire):
            return f'(schematic "c" "composer-like" (page 1 (frame 0 0 100 100) {wire}))'

        for wire, anchor in (
            ('(wire (label "N1") (pts 0 0 40 0))', None),
            ('(wire (label "N1") (anchor 17 3) (pts 0 0 40 0))', Point(17, 3)),
        ):
            loaded = io_cd.load_schematic(page(wire), vl_libs)
            assert loaded.pages[0].wires[0].label_position == anchor
        with pytest.raises(CDFormatError, match="anchor"):
            io_cd.load_schematic(page('(wire (anchor 17) (pts 0 0 40 0))'), vl_libs)


class TestCDWireErrors:
    """Malformed ``(wire ...)`` sections fail typed, with the section and its place."""

    @pytest.mark.parametrize("wire,reason", [
        ("(wire (pts 0 0 30 40))", "not Manhattan"),
        ("(wire (pts 0 0))", "at least two points"),
        ("(wire (pts 5 5 5 5))", "two distinct points"),
        ("(wire (pts 0 0 1.5 0))", "expected integer"),
        ("(wire (label))", "missing field"),
        ("(wire)", "at least two points"),
    ], ids=["non-manhattan", "single-point", "coincident-points", "non-integer",
            "missing-label", "missing-points"])
    def test_bad_wire_section(self, vl_libs, wire, reason):
        text = (
            '(schematic "c" "composer-like" (page 1 (frame 0 0 100 100) '
            f'(wire (pts 0 0 10 0)) {wire}))'
        )
        with pytest.raises(CDFormatError, match=reason) as caught:
            io_cd.load_schematic(text, vl_libs)
        assert str(caught.value).startswith("page 1 wire 2: bad wire [wire")


class TestVLRecordErrors:
    """Every malformed record fails typed, with its line and the record."""

    HEAD = "VLSCHEM 1 c viewdraw-like\n# a comment line\nPAGE 1 0 0 100 100\n"

    @pytest.mark.parametrize("record,name,reason", [
        ("I U1 vl_builtin nosuch symbol 0 0 R0", "instance", "nosuch"),
        ("I U1 vl_builtin", "instance", "missing field"),
        ("I U1 vl_builtin offPage symbol 0 0 R45", "instance", "R45"),
        ("I U1 vl_builtin offPage symbol x 0 R0", "instance", "invalid literal"),
        ("IPROP w str", "instance property", "IPROP record without"),
        ("PAGE 2 0 0 10", "page", "missing field"),
        ("PAGE 2 0 0 10 x", "page", "invalid literal"),
        ("PAGE 3 0 0 10 10", "page", "sequential"),
        ("PAGE 2 10 10 0 0", "page", "degenerate rect"),
        ("T 1 2 3", "text", "missing field"),
        ("PORT a", "port", "missing field"),
        ("CPROP k int x", "property", "invalid literal"),
        ("Q 1 2", "Q", "unknown record"),
    ], ids=["unknown-master", "short-instance", "bad-orientation", "bad-offset",
            "iprop-without-instance", "short-page", "bad-frame", "page-number",
            "inverted-frame", "short-text", "short-port", "bad-property", "unknown"])
    def test_bad_record(self, vl_libs, record, name, reason):
        text = f"{self.HEAD}{record}\nENDPAGE\nEND\n"
        with pytest.raises(VLFormatError, match=reason) as caught:
            io_vl.load_schematic(text, vl_libs)
        assert str(caught.value).startswith(f"line 4: bad {name} record {record!r}")


class TestCDSectionErrors:
    """Malformed sections fail typed, naming their page and ordinal."""

    @pytest.mark.parametrize("section,place", [
        ('(inst "U1" ("vl_builtin" "nosuch" "symbol") (at 0 0) (orient R0))',
         "page 1 inst 1: bad inst"),
        ('(inst "U1" ("vl_builtin" "offPage" "symbol") 7 (orient R0))',
         "page 1 inst 1: bad inst"),
        ('(inst "U1" ("vl_builtin" "offPage" "symbol"))', "page 1 inst 1: bad inst"),
        ('(text "t" (at 1 2))', "page 1 text 1: bad text"),
        ("(frob 1)", "page 1 frob 1: bad frob"),
    ], ids=["unknown-master", "placement-not-a-section", "short-inst", "short-text",
            "unknown"])
    def test_bad_page_section(self, vl_libs, section, place):
        text = f'(schematic "c" "composer-like" (page 1 (frame 0 0 100 100) {section}))'
        with pytest.raises(CDFormatError) as caught:
            io_cd.load_schematic(text, vl_libs)
        assert str(caught.value).startswith(place)

    @pytest.mark.parametrize("page,place", [
        ("(page 1)", "page 1: bad page"),
        ("(page 1 (frame 0 0 10))", "page 1: bad page"),
        ("(page 2 (frame 0 0 10 10))", "page 1: bad page"),
    ], ids=["no-frame", "short-frame", "page-number"])
    def test_bad_page_header(self, vl_libs, page, place):
        with pytest.raises(CDFormatError) as caught:
            io_cd.load_schematic(f'(schematic "c" "composer-like" {page})', vl_libs)
        assert str(caught.value).startswith(place)

    def test_bad_port(self, vl_libs):
        with pytest.raises(CDFormatError, match="^schematic port: bad port"):
            io_cd.load_schematic('(schematic "c" "composer-like" (port "a"))', vl_libs)


def _mutate(text, rng):
    """One random line-level edit: drop, truncate or swap lines, or drop,
    replace or insert a space-separated field."""
    junk = ["", "x", "-1", "0", "1.5", "@", "-", "%zz", "R90", "(", ")", '"q"', "nan"]
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    fields = lines[i].split(" ")
    edit = rng.randrange(6)
    if edit == 0:
        del lines[i]
    elif edit == 1:
        del fields[rng.randrange(len(fields))]
        lines[i] = " ".join(fields)
    elif edit == 2:
        fields[rng.randrange(len(fields))] = rng.choice(junk)
        lines[i] = " ".join(fields)
    elif edit == 3:
        fields.insert(rng.randrange(len(fields) + 1), rng.choice(junk))
        lines[i] = " ".join(fields)
    elif edit == 4:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    else:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


class TestSeededMutations:
    """Seeded line mutations of a generated two-page design: a loader may
    accept the result or raise a SchematicError, nothing else."""

    @pytest.mark.parametrize("fmt", ["vl", "cd"])
    def test_only_schematic_errors_escape(self, vl_libs, fmt):
        module = io_vl if fmt == "vl" else io_cd
        cell = generate_chain_schematic(
            vl_libs, pages=2, chains_per_page=2, stages=3, seed=5
        )
        text = module.dump_schematic(cell)
        rng = random.Random(1)
        rejected = 0
        for _ in range(600):
            try:
                module.load_schematic(_mutate(text, rng), vl_libs)
            except SchematicError:
                rejected += 1
        assert rejected > 300  # the mutations do break most files


class TestLibraryRecordErrors:
    """Malformed library records fail typed: ``.vl`` with the line and the
    record, ``.cd`` with the symbol and section ordinals."""

    @pytest.mark.parametrize("record,name,reason", [
        ("SYM s symbol component 0 0 16", "symbol", "expected 8 fields"),
        ("SYM s symbol component 0 0 16 x", "symbol", "invalid literal"),
        ("SYM s symbol component 9 9 0 0", "symbol", "degenerate rect"),
        ("PIN P input 0", "pin", "missing field"),
        ("PIN P sideways 0 0", "pin", "bad pin direction"),
        ("SPROP k int x", "symbol property", "invalid literal"),
        ("SPROP k", "symbol property", "missing field"),
    ], ids=["short-sym", "bad-body", "inverted-body", "short-pin", "bad-direction",
            "bad-property", "short-property"])
    def test_bad_vl_record(self, record, name, reason):
        lines = ["VLLIB lib", "SYM s symbol component 0 0 16 16", "PIN A input 0 0",
                 "ENDSYM", "ENDLIB"]
        at = 1 if record.startswith("SYM") else 2
        lines[at] = record
        with pytest.raises(VLFormatError, match=reason) as caught:
            io_vl.load_library("\n".join(lines) + "\n")
        assert str(caught.value).startswith(f"line {at + 1}: bad {name} record {record!r}")

    def test_vl_symbol_ends_are_checked(self):
        with pytest.raises(VLFormatError, match="unterminated SYM"):
            io_vl.load_library("VLLIB lib\nSYM s symbol component 0 0 16 16\n")
        with pytest.raises(VLFormatError, match="line 2: bad pin record .*expected SYM record"):
            io_vl.load_library("VLLIB lib\nPIN A input 0 0\nENDLIB\n")

    @pytest.mark.parametrize("symbol,place", [
        ('(symbol "s" "symbol" component (body 0 0 16))', "symbol 1: bad symbol"),
        ('(symbol "s" "symbol" component 7)', "symbol 1: bad symbol"),
        ('(symbol "s" "symbol" widget (body 0 0 16 16))', "symbol 1: bad symbol"),
        ('(symbol "s" "symbol" component (body 0 0 16 16) (pin "A" input 3))',
         "symbol 1 pin 1: bad pin"),
        ('(symbol "s" "symbol" component (body 0 0 16 16) (pin "A" input (at 0 0))'
         ' (pin "B" input))', "symbol 1 pin 2: bad pin"),
        ('(symbol "s" "symbol" component (body 0 0 16 16) (prop "k" int "x"))',
         "symbol 1 prop 1: bad prop"),
    ], ids=["short-body", "body-not-a-section", "bad-kind", "pin-at-not-a-section",
            "short-pin", "bad-property"])
    def test_bad_cd_section(self, symbol, place):
        with pytest.raises(CDFormatError) as caught:
            io_cd.load_library(f'(library "lib" {symbol})')
        assert str(caught.value).startswith(place)


class TestSeededLibraryMutations:
    """Seeded line mutations of the dumped ``vl_builtin`` library: a library
    loader may accept the result or raise a SchematicError, nothing else."""

    @pytest.mark.parametrize("fmt", ["vl", "cd"])
    def test_only_schematic_errors_escape(self, vl_libs, fmt):
        module = io_vl if fmt == "vl" else io_cd
        text = module.dump_library(vl_libs.library("vl_builtin"))
        rng = random.Random(1)
        rejected = 0
        for _ in range(600):
            try:
                module.load_library(_mutate(text, rng))
            except SchematicError:
                rejected += 1
        assert rejected > 200  # the mutations do break many files


class TestCrossFormat:
    def test_vl_to_cd_preserves_connectivity(self, vl_libs, sample):
        """A design can travel VL-text -> model -> CD-text -> model intact."""
        vl_text = io_vl.dump_schematic(sample)
        via_vl = io_vl.load_schematic(vl_text, vl_libs)
        cd_text = io_cd.dump_schematic(via_vl)
        via_cd = io_cd.load_schematic(cd_text, vl_libs)
        assert extract(sample).signature() == extract(via_cd).signature()
