"""Search-volume caps for the exhaustive enumerators.

Every enumeration entry point takes a ``max_volume`` argument. Passing
``None`` selects :data:`DEFAULT_MAX_VOLUME`. The estimate compared against
the cap is always a cheap upper bound (a box volume or a stars-and-bars
count), never the true output size, so refusals are conservative.
"""

DEFAULT_MAX_VOLUME = 10_000_000

# The routes of brackets.gfc, in the order gfc --method all runs them; each
# checks its own cap as it starts, and the first refusal ends the request.
# They live here, with no import, so that the CLI's argument parser can
# list them without loading the bracket's modules.
GFC_METHODS = ("enum", "dp", "det", "canonical")


class SearchCapExceeded(RuntimeError):
    """Raised instead of starting a search that is too large.

    Carries the estimated volume so callers (and the CLI, which maps this
    to exit code 2) can report how far over the cap the request was.
    """

    def __init__(self, estimate, cap, what="search"):
        self.estimate = estimate
        self.cap = cap
        self.what = what
        try:
            volume = str(estimate)
        except ValueError:
            # past str()'s digit limit (sys.set_int_max_str_digits); .estimate stays exact
            volume = f"of {estimate.bit_length()} bits"
        super().__init__(f"refusing {what}: estimated volume {volume} exceeds cap {cap}")


def check_volume(estimate, max_volume, what="search"):
    cap = DEFAULT_MAX_VOLUME if max_volume is None else max_volume
    if estimate > cap:
        raise SearchCapExceeded(estimate, cap, what)
