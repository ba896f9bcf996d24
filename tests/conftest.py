import os

import pytest
from hypothesis import settings

from derfree.field import GF101, QQ

settings.register_profile("ci", deadline=None, max_examples=25, derandomize=True)
settings.register_profile("deep", deadline=None, max_examples=400, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(params=["gfp", "rational"], ids=["GF101", "QQ"])
def any_field(request):
    return GF101 if request.param == "gfp" else QQ


@pytest.fixture
def gf():
    return GF101
