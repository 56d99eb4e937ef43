import os

from hypothesis import settings

settings.register_profile("mfkit", deadline=None, derandomize=True)
# HYPOTHESIS_PROFILE=ci runs five times the default number of examples.
settings.register_profile("ci", settings.get_profile("mfkit"), max_examples=500)
settings.load_profile("ci" if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else "mfkit")
