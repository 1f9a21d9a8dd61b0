"""pyproject.toml declares ``numpy>=1.24``, so the package and its tests
must not call a name that NumPy added in 2.0. Only one NumPy is installed
where the suite runs, so a call to such a name would pass there and fail on
an older NumPy; this check reads the code instead of running it."""

import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module-level functions new in NumPy 2.0 (np.<name>) and the ndarray
# attribute new in 2.0 (<array>.mT)
NUMPY2_FUNCTIONS = {
    "vecdot",
    "matvec",
    "vecmat",
    "unstack",
    "concat",
    "isdtype",
    "astype",
    "pow",
    "permute_dims",
}
NUMPY2_ATTRIBUTES = {"mT"}


def numpy2_calls(source):
    """(line, dotted name) of each NumPy-2.0-only name the code reads;
    comments and strings do not count."""
    tokens = [
        tok
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type in (tokenize.NAME, tokenize.OP)
    ]
    found = []
    for before, dot, name in zip(tokens, tokens[1:], tokens[2:]):
        if dot.string != "." or name.type != tokenize.NAME:
            continue
        module = before.string in ("np", "numpy")
        if (module and name.string in NUMPY2_FUNCTIONS) or (
            name.string in NUMPY2_ATTRIBUTES
        ):
            found.append((name.start[0], f"{before.string}.{name.string}"))
    return found


def test_the_check_finds_numpy2_names_in_code_only():
    source = (
        "import numpy as np\n"
        "a = np.vecdot(x, y)  # np.concat in a comment\n"
        "b = x.mT + numpy.pow(x, 2)\n"
        "c = x.astype(float), np.dot(x, y), 'np.unstack'\n"
    )
    assert numpy2_calls(source) == [(2, "np.vecdot"), (3, "x.mT"), (3, "numpy.pow")]


def test_no_numpy2_only_names_in_src_or_tests():
    found = {
        str(path.relative_to(ROOT)): calls
        for folder in ("src", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (calls := numpy2_calls(path.read_text()))
    }
    assert not found, f"NumPy-2.0-only names, against numpy>=1.24: {found}"
