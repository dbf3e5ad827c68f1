"""One hypothesis profile for every property test: the same examples on every
run, and nothing written into the checkout."""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("adslab", derandomize=True, database=None, deadline=None)
settings.load_profile("adslab")

# hypothesis caches the constants it reads in the code under test while it
# collects, by default in .hypothesis/ under the working directory
HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="adslab-hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(HYPOTHESIS_HOME, ignore_errors=True)
