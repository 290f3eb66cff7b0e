import sys
import warnings
from pathlib import Path

import pytest

from condchrom import build

sys.path.insert(0, str(Path(__file__).parent))

# When a @given test fails, hypothesis' pytest plugin imports this module to
# suggest an explicit example. It imports libcst, whose import warns through
# mypy_extensions; pyproject.toml turns every warning into an error, and an
# error raised inside the plugin's report hook ends the whole run in an
# INTERNALERROR. Importing it once here, with that one warning category
# ignored, leaves the report hook a cached module. Without libcst it does not
# import, and the plugin skips the suggestion.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# Connected desk-scale instances exercised by the property and acceptance
# suites. All have at most 12 vertices so exact solves stay cheap.
CORPUS_SPECS = [
    "wd:3,1",
    "wd:3,2",
    "wd:3,3",
    "wd:4,1",
    "wd:4,2",
    "cyc:4",
    "cyc:5",
    "cyc:6",
    "cyc:7",
    "kpart:1,2",
    "kpart:2,2",
    "kpart:1,1,1",
    "kpart:1,1,2",
    "L(wd:3,1)",
    "L(wd:3,2)",
    "L(wd:3,3)",
    "L(wd:4,2)",
    "M(cyc:4)",
    "M(cyc:5)",
    "M(fr:1)",
    "M(fr:2)",
    "M(kpart:1,2)",
    "M(kpart:2,2)",
    "M(kpart:1,1,1)",
    "M(kpart:1,1,2)",
]


@pytest.fixture(scope="session")
def corpus():
    return [(spec, build(spec)[0]) for spec in CORPUS_SPECS]
