"""Flow-level simulator and mechanism library for truthful bandwidth prioritization.

A shared router sells per-epoch capacity to buyers with linear per-KB values.
The library provides the demand models, routing policies (FIFO / FQ / SPQ and a
threshold hybrid), payment mechanisms (fixed price, per-epoch VCG, and the
bid-resampling rebate scheme), strategic buyer agents, and multi-seller revenue
pooling, plus a CLI for running the packaged experiment scenarios.
"""

from bandshare.demand import DemandRealization, DemandSpec, check_natural
from bandshare.engine import (
    BuyerSpec,
    Probe,
    Scenario,
    SessionOutcome,
    Strategy,
    replay,
    run_monte_carlo,
    run_probes,
    run_seeds,
    run_session,
)
from bandshare.payments import (
    MeanCI,
    PaymentOutcome,
    bks_settle,
    fixed_price_settle,
    resample_bid,
    vmm_epoch_charges,
)
from bandshare.pooling import (
    LedgerRow,
    PoolSettlement,
    SellerLedger,
    settle_pool,
    tax_admissibility_estimate,
)
from bandshare.routing import maxmin, proportional, spq

__version__ = "0.1.0"
