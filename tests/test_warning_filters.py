"""The Tier-1 warning filters turn every warning into an error, except
one message of a third-party import: a failing Hypothesis test must be
reported as one failure, and the tests after it must still run."""
import textwrap

import pytest

pytest.importorskip("hypothesis")
pytest_plugins = ["pytester"]


def test_a_failing_given_test_does_not_end_the_session(pytester, request):
    """When a ``@given`` test fails, Hypothesis imports ``libcst`` to write
    its patch, and that import warns that ``mypy_extensions.TypedDict`` is
    deprecated.  Under the repository's own filters, run in a fresh
    process (the warning comes once per process), the failure and the
    next test are both reported."""
    filters = request.config.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=5, database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
    """))
    pytester.runpytest_subprocess("-p", "no:cacheprovider").assert_outcomes(failed=1, passed=1)
