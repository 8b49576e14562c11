"""One malformed input per refusal of the three JSON readers (complexes,
ideals and decompositions), each with the exact error line the CLI prints,
and inputs with several faults that pin which refusal comes first.

Every value is checked once, where it is read, so a faster reader must keep
this table byte for byte."""
import json

import pytest

from srdepth.cli import main

#: a pure complex whose facet complements are {3} and {1}
PATH = {"n": 3, "facets": [[1, 2], [2, 3]]}
#: a full simplex: its one facet covers every vertex
SIMPLEX = {"n": 2, "facets": [[1, 2]]}


def dec(*components, cx=PATH) -> dict:
    return {"complex": cx, "components": list(components)}


#: the second facet of PATH with a valid component, to complete a decomposition
REST = {"facet": [2, 3], "power": 1}

COMPLEX_REFUSALS = [
    ("no n", {"facets": [[1]]}, "complex JSON needs 'n' and 'facets': 'n'"),
    ("n a string", {"n": "3", "facets": [[1]]}, "n must be an integer, got '3'"),
    ("n a bool", {"n": True, "facets": [[1]]}, "n must be an integer, got True"),
    ("n zero", {"n": 0, "facets": [[1]]}, "vertex count must be in 1..64, got 0"),
    ("n too large", {"n": 65, "facets": [[1]]}, "vertex count must be in 1..64, got 65"),
    ("facets no list", {"n": 3, "facets": 5}, "facets must be a list, got 5"),
    ("facet no list", {"n": 3, "facets": [3]}, "each entry of facets must be a list, got 3"),
    ("vertex a float", {"n": 3, "facets": [[1, 2.5]]}, "vertex must be an integer, got 2.5"),
    ("vertex out of range", {"n": 3, "facets": [[1, 4]]}, "vertex 4 out of range 1..3"),
    ("vertex twice", {"n": 3, "facets": [[1, 1]]}, "vertex 1 listed twice"),
]

IDEAL_REFUSALS = [
    ("no n", {"generators": [[1]]}, "ideal JSON needs 'n' and 'generators': 'n'"),
    ("n a float", {"n": 2.0, "generators": [[1, 0]]}, "n must be an integer, got 2.0"),
    ("n zero", {"n": 0, "generators": []}, "ambient variable count must be >= 1"),
    ("n too large", {"n": 70, "generators": []},
     "ambient variable count must be at most 64, got 70"),
    ("generators no list", {"n": 2, "generators": 5}, "generators must be a list, got 5"),
    ("row no list", {"n": 2, "generators": [1]},
     "each entry of generators must be a list, got 1"),
    ("exponent a float", {"n": 2, "generators": [[1.5, 0]]},
     "exponent must be an integer, got 1.5"),
    ("exponent a bool", {"n": 2, "generators": [[0, 1], [True, 0]]},
     "exponent must be an integer, got True"),
    ("exponent a string", {"n": 2, "generators": [[1, "0"]]},
     "exponent must be an integer, got '0'"),
    ("wrong row length", {"n": 2, "generators": [[1, 0], [1, 2, 3]]},
     "generator (1, 2, 3) has length 3, expected 2"),
    ("negative exponent", {"n": 2, "generators": [[1, 0], [-1, 0]]},
     "negative exponent in generator (-1, 0)"),
    # several faults: rows are checked in order, each for type, then length, then sign
    ("bool in row 1, short row 2", {"n": 2, "generators": [[True, 0], [1]]},
     "exponent must be an integer, got True"),
    ("short row 1, float in row 2", {"n": 2, "generators": [[1], [1.5, 0]]},
     "generator (1,) has length 1, expected 2"),
    ("float and wrong length", {"n": 2, "generators": [[1, 0, 0.5]]},
     "exponent must be an integer, got 0.5"),
    ("negative and wrong length", {"n": 2, "generators": [[-1, 0, 0]]},
     "generator (-1, 0, 0) has length 3, expected 2"),
    ("row no list after a bad row", {"n": 2, "generators": [[-1, 0], 7]},
     "each entry of generators must be a list, got 7"),
]

DECOMPOSITION_REFUSALS = [
    ("no complex", {"components": []},
     "decomposition JSON needs 'complex' and 'components': 'complex'"),
    ("complex no object", {"complex": 5, "components": []},
     "complex JSON needs 'n' and 'facets': got 5"),
    ("components no list", dec() | {"components": 5}, "components must be a list, got 5"),
    ("component no object", dec(5), "component JSON needs 'facet': got 5"),
    ("no facet", dec({"power": 2}), "component JSON needs 'facet': 'facet'"),
    ("facet no list", dec({"facet": 3, "power": 2}), "facet must be a list, got 3"),
    ("facet vertex a float", dec({"facet": [1.5], "power": 2}),
     "vertex must be an integer, got 1.5"),
    ("no form", dec({"facet": [1, 2]}),
     "component for facet [1, 2] needs exactly one of 'generators', 'power' or "
     "'irreducible', got none"),
    ("two forms", dec({"facet": [1, 2], "power": 1, "irreducible": [1]}),
     "component for facet [1, 2] needs exactly one of 'generators', 'power' or "
     "'irreducible', got 'power' and 'irreducible'"),
    # the power form
    ("power a float", dec({"facet": [1, 2], "power": 1.5}, REST),
     "power must be an integer, got 1.5"),
    ("power a bool", dec({"facet": [1, 2], "power": True}, REST),
     "power must be an integer, got True"),
    ("power zero", dec({"facet": [1, 2], "power": 0}, REST), "power must be >= 1, got 0"),
    ("power facet out of range", dec({"facet": [1, 4], "power": 1}, REST),
     "vertex 4 out of range 1..3"),
    ("power facet vertex twice", dec({"facet": [1, 1], "power": 1}, REST),
     "vertex 1 listed twice"),
    ("prime power cap", dec({"facet": [1, 2], "power": 1000},
                            cx={"n": 5, "facets": [[1, 2]]}),
     "prime power P_F^1000 in 3 variables has 501501 generators, more than 100000"),
    # the irreducible form
    ("irreducible no list", dec({"facet": [1, 2], "irreducible": 3}, REST),
     "irreducible must be a list, got 3"),
    ("irreducible facet out of range", dec({"facet": [4], "irreducible": [1, 1]}, REST),
     "vertex 4 out of range 1..3"),
    ("wrong exponent count", dec({"facet": [1, 2], "irreducible": [1, 2]}, REST),
     "expected 1 exponents for complement (3,), got 2"),
    ("irreducible exponent a float", dec({"facet": [1, 2], "irreducible": [1.5]}, REST),
     "exponent must be an integer, got 1.5"),
    ("irreducible exponent below 1", dec({"facet": [1, 2], "irreducible": [0]}, REST),
     "irreducible exponents must be >= 1, got 0"),
    # the generators form
    ("generators no list", dec({"facet": [1, 2], "generators": 5}, REST),
     "generators must be a list, got 5"),
    ("generators wrong row length", dec({"facet": [1, 2], "generators": [[0, 1]]}, REST),
     "generator (0, 1) has length 2, expected 3"),
    ("generators negative exponent", dec({"facet": [1, 2], "generators": [[0, 0, -1]]}, REST),
     "negative exponent in generator (0, 0, -1)"),
    ("generators facet out of range", dec({"facet": [1, 4], "generators": [[0, 0, 1]]}, REST),
     "vertex 4 out of range 1..3"),
    ("generators facet vertex twice", dec({"facet": [2, 2], "generators": [[0, 0, 1]]}, REST),
     "vertex 2 listed twice"),
    # the components together
    ("two components, same order", dec(REST, {"facet": [2, 3], "power": 2}),
     "facet [2, 3] has more than one component"),
    ("two components, swapped order", dec(REST, {"facet": [3, 2], "power": 2}),
     "facet [2, 3] has more than one component"),
    ("void complex", dec(cx={"n": 3, "facets": []}),
     "a decomposition needs a nonvoid complex"),
    ("impure complex without components", dec(cx={"n": 3, "facets": [[1, 2], [3]]}),
     "components must be keyed by the facets of the complex"),
    ("a facet without a component", dec(REST),
     "components must be keyed by the facets of the complex"),
    ("a component off the facets", dec(REST, {"facet": [1, 2], "power": 1},
                                       {"facet": [1, 3], "power": 1}),
     "components must be keyed by the facets of the complex"),
    ("generator involves facet variables",
     dec({"facet": [1, 2], "generators": [[0, 0, 1], [1, 0, 0]]}, REST),
     "component for facet [1, 2] is not primary: "
     "generator (1, 0, 0) involves variables of the facet"),
    ("no pure power", dec({"facet": [1, 2], "power": 1}, {"facet": [2, 3], "generators": []}),
     "component for facet [2, 3] is not primary: no pure power of x_1 among the generators"),
    ("facet covers every vertex, irreducible",
     dec({"facet": [1, 2], "irreducible": []}, cx=SIMPLEX),
     "component for facet [1, 2] is not primary: facet covers every vertex, so its prime is zero"),
    ("facet covers every vertex, power", dec({"facet": [2, 1], "power": 2}, cx=SIMPLEX),
     "component for facet [1, 2] is not primary: facet covers every vertex, so its prime is zero"),
    ("facet covers every vertex, generators",
     dec({"facet": [1, 2], "generators": []}, cx=SIMPLEX),
     "component for facet [1, 2] is not primary: facet covers every vertex, so its prime is zero"),
    # several faults: which refusal comes first
    ("power zero and facet out of range", dec({"facet": [1, 4], "power": 0}, REST),
     "power must be >= 1, got 0"),
    ("bool exponent in row 1 and short row 2",
     dec({"facet": [1, 2], "generators": [[0, 0, True], [1]]}, REST),
     "exponent must be an integer, got True"),
    ("bad generators and facet out of range",
     dec({"facet": [1, 4], "generators": [[0, 1], [0, 0, 1.5]]}, REST),
     "generator (0, 1) has length 2, expected 3"),
    ("irreducible list and facet out of range", dec({"facet": [4], "irreducible": 1}, REST),
     "irreducible must be a list, got 1"),
    ("facet out of range and wrong exponent count",
     dec({"facet": [1, 4], "irreducible": [1, 1, 1]}, REST),
     "vertex 4 out of range 1..3"),
    # a generators facet is checked only after every component is read
    ("generators facet out of range, then power zero",
     dec({"facet": [1, 4], "generators": [[0, 0, 1]]}, {"facet": [2, 3], "power": 0}),
     "power must be >= 1, got 0"),
    ("impure complex and power zero",
     dec({"facet": [1, 2], "power": 0}, cx={"n": 3, "facets": [[1, 2], [3]]}),
     "power must be >= 1, got 0"),
    ("impure complex and generators facet out of range",
     dec({"facet": [1, 4], "generators": [[0, 0, 1]]},
         cx={"n": 3, "facets": [[1, 2], [3]]}),
     "vertex 4 out of range 1..3"),
    # a duplicate facet, in any vertex order, is refused after every component is read
    ("duplicate, then power zero",
     dec(REST, {"facet": [2, 3], "power": 2}, {"facet": [1, 2], "power": 0}),
     "power must be >= 1, got 0"),
    ("swapped duplicate, then power zero",
     dec(REST, {"facet": [3, 2], "power": 2}, {"facet": [1, 2], "power": 0}),
     "power must be >= 1, got 0"),
    ("generators facet out of range, listed twice",
     dec({"facet": [1, 4], "generators": [[0, 0, 1]]},
         {"facet": [1, 4], "generators": [[0, 0, 1]]}),
     "vertex 4 out of range 1..3"),
    ("generators facet out of range before a swapped duplicate",
     dec({"facet": [1, 4], "generators": [[0, 0, 1]]}, REST, {"facet": [3, 2], "power": 2}),
     "vertex 4 out of range 1..3"),
    ("swapped duplicate before a generators facet out of range",
     dec(REST, {"facet": [3, 2], "power": 2}, {"facet": [1, 4], "generators": [[0, 0, 1]]}),
     "facet [2, 3] has more than one component"),
    ("facet out of range before a missing facet",
     dec({"facet": [1, 4], "generators": [[0, 0, 1]]}),
     "vertex 4 out of range 1..3"),
    ("missing facet before a non-primary component",
     dec({"facet": [1, 2], "generators": [[1, 0, 0]]}),
     "components must be keyed by the facets of the complex"),
    ("non-primary components in facet order",
     dec({"facet": [2, 3], "generators": [[0, 1, 0]]},
         {"facet": [1, 2], "generators": [[1, 0, 0]]}),
     "component for facet [1, 2] is not primary: "
     "generator (1, 0, 0) involves variables of the facet"),
]

CASES = [
    *(pytest.param("depth", data, text, id=f"complex: {name}")
      for name, data, text in COMPLEX_REFUSALS),
    *(pytest.param("depth", data, text, id=f"ideal: {name}")
      for name, data, text in IDEAL_REFUSALS),
    *(pytest.param("depth-equal-radical", data, text, id=f"decomposition: {name}")
      for name, data, text in DECOMPOSITION_REFUSALS),
]


@pytest.mark.parametrize("command,data,text", CASES)
def test_refusal_prints_its_one_error_line(tmp_path, capsys, command, data, text):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = main([command, str(path)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {path}: {text}\n")
