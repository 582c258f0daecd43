"""Physical and protocol constants used across the reproduction.

Values mirror the evaluation setup of the paper (Section 4.1) and the
WaveLAN-II radio characterization it cites.  A value that a
:class:`~repro.network.SimulationConfig` field names (ranges, bit rate,
beacon timing, the scenario shape) is that field's default; the rest are
fixed, as they are in every run of the paper.
"""

from __future__ import annotations

# --- Radio / energy (Lucent WaveLAN-II, as used by the paper) ---------------

#: Power drawn while awake (idle listening, receiving or transmitting), watts.
#: The paper lumps idle/rx/tx together at 1.15 W ("nodes consume 1.15W during
#: AM").
POWER_AWAKE_W = 1.15

#: Power drawn in the low-power sleep ("doze") state, watts (9 mA x 5 V).
POWER_SLEEP_W = 0.045

# --- PHY ---------------------------------------------------------------------

#: Nominal radio transmission range, meters (ns-2 default for 802.11/two-ray).
TX_RANGE_M = 250.0

#: Carrier-sense range, meters (ns-2 default is 2.2x the tx range; we keep the
#: conventional 550 m).
CS_RANGE_M = 550.0

#: Channel bit rate, bits per second (2 Mbps in the paper).
BITRATE_BPS = 2_000_000.0

# --- MAC / PSM timing --------------------------------------------------------

#: Beacon interval, seconds.  The paper's delay and ODPM-energy arithmetic
#: (125 ms average per-hop wait; 225 s of ATIM-awake time over 1125 s) pins
#: this at 250 ms with a 50 ms ATIM window.
BEACON_INTERVAL_S = 0.250

#: ATIM window, seconds.
ATIM_WINDOW_S = 0.050

#: Maximum MAC retransmission attempts for a unicast frame before the link is
#: declared broken (the 802.11 short retry limit).
MAC_RETRY_LIMIT = 7

#: Mean MAC backoff delay, seconds.  This is the event-driven abstraction of
#: the 802.11 contention window; the real DCF averages CWmin/2 = 15.5 slots
#: of 20 us (~310 us), we use 0.5 ms to absorb the residual serialization
#: the event model does not capture.
MAC_BACKOFF_MEAN_S = 0.0005

#: Backoff-mean growth factor per retransmission attempt (contention-window
#: doubling).
MAC_BACKOFF_GROWTH = 2.0

#: Fixed per-frame MAC/PHY overhead in bytes (headers, preamble equivalent).
MAC_HEADER_BYTES = 34

#: Per-interval announcement budget: at most this many distinct destinations
#: are advertised in one ATIM window (a window fits a handful of ATIMs).
PSM_MAX_ANNOUNCEMENTS = 8

#: Seconds a power-mode belief (from a neighbor's PwrMgt bit) stays usable
#: for ODPM's immediate-send bypass.
PSM_MODE_BELIEF_TTL_S = 2.0

#: DCF inter-frame space, seconds.
DIFS_S = 50e-6

# --- ODPM keep-alive timeouts (Zheng & Kravets; values used in the paper) ----

#: Stay in AM this long after sending/receiving a RREP, seconds.
ODPM_RREP_TIMEOUT_S = 5.0

#: Stay in AM this long after sending/receiving a data packet (or while being
#: a source/destination of an active flow), seconds.
ODPM_DATA_TIMEOUT_S = 2.0

# --- SPAN coordinator election ---------------------------------------------

#: Upper bound of a node's randomized election backoff, seconds; checks
#: recur every backoff plus half this period.
SPAN_ELECTION_PERIOD_S = 2.0

#: A coordinator serves at least this long before it may withdraw, seconds
#: (keeps the backbone from oscillating).
SPAN_WITHDRAW_GRACE_S = 5.0

# --- Rcast decision factors (paper Section 3.2) -----------------------------

#: Silence after which the sender-recency factor reaches its maximum gain,
#: seconds.
RCAST_RECENCY_HORIZON_S = 10.0

#: Sender-recency gain for a sender heard just now (its routes are redundant).
RCAST_RECENCY_MIN_GAIN = 0.25

#: Sender-recency gain for a sender silent for the whole horizon, or never
#: heard.
RCAST_RECENCY_MAX_GAIN = 4.0

#: Link-change rate (changes per second) at which the mobility factor damps
#: P_R to 1/e.
RCAST_MOBILITY_SCALE = 1.0

#: Lowest battery factor: nearly drained nodes still overhear occasionally.
RCAST_BATTERY_FLOOR = 0.05

#: Lowest probability of staying awake for a broadcast when broadcasts are
#: randomized, so floods still propagate.
RCAST_BROADCAST_FLOOR = 0.5

# --- Adaptive P_R policies (repro.core.adaptive) ----------------------------

#: Measured-degree policy: EWMA weight in (0, 1], beacon intervals per
#: measurement window, active windows before the estimate is trusted, and
#: the dense neighborhood assumed while cold (P_R = 1/32).
ADAPTIVE_DEGREE_ALPHA = 0.4
ADAPTIVE_DEGREE_WINDOW_EPOCHS = 8
ADAPTIVE_DEGREE_WARMUP_WINDOWS = 2
ADAPTIVE_DEGREE_COLD_DEGREE = 32

#: Energy-budget policy: target awake fraction at a full battery, base of
#: the dithered multiplicative step (> 1), and the rails of the P_R
#: multiplier over 1/n (0 < min <= 1 <= max).
ADAPTIVE_ENERGY_SETPOINT = 0.35
ADAPTIVE_ENERGY_STEP = 1.25
ADAPTIVE_ENERGY_M_MIN = 0.125
ADAPTIVE_ENERGY_M_MAX = 8.0

#: Bandit policy: exploration probability per beacon interval, and the
#: reward cost of a fully awake interval, in delivered overhears.
ADAPTIVE_BANDIT_EPSILON = 0.1
ADAPTIVE_BANDIT_COST_WEIGHT = 2.0

# --- Routing (both agents) ---------------------------------------------------

#: Maximum data packets buffered per node awaiting a route.
SEND_BUFFER_CAPACITY = 64

#: Seconds a packet may wait in the send buffer before being dropped.
SEND_BUFFER_TIMEOUT_S = 30.0

# --- DSR ---------------------------------------------------------------------

#: Maximum passively learned (secondary-segment) paths per node's route cache.
DSR_CACHE_CAPACITY = 64

#: Maximum actively used (primary-segment) paths per node's route cache.
DSR_CACHE_PRIMARY_CAPACITY = 32

#: Route-discovery retransmission backoff: initial wait before retrying a
#: network-wide RREQ that got no answer, seconds.  Under PSM a discovery
#: round-trip costs roughly two beacon intervals per hop, so this must sit
#: well above the multi-second PSM RTT or every discovery re-floods.
DSR_DISCOVERY_TIMEOUT_S = 2.5

#: Wait after the non-propagating (TTL-1) ring before escalating to a
#: network-wide flood, seconds (about two beacon intervals under PSM).
DSR_NONPROP_TIMEOUT_S = 0.6

#: Exponential backoff cap for repeated discoveries, seconds.
DSR_DISCOVERY_MAX_BACKOFF_S = 10.0

#: Maximum times a discovery is retried before the packet is dropped.
DSR_DISCOVERY_MAX_RETRIES = 8

#: TTL used for the non-propagating (ring-0) RREQ of expanding-ring search.
DSR_NONPROP_TTL = 1

#: Network-wide RREQ TTL.
DSR_NETWORK_TTL = 16

#: RREPs the target sends per discovery (one per arriving RREQ copy), offering
#: alternative routes; the paper leans on this behaviour.
DSR_MAX_REPLIES_PER_REQUEST = 3

#: Maximum times one data packet may be salvaged on link failure.
DSR_MAX_SALVAGE_COUNT = 2

# --- AODV (paper-era defaults) -----------------------------------------------

#: Seconds a route stays valid after its last use/update (RFC default 3 s).
AODV_ACTIVE_ROUTE_TIMEOUT_S = 3.0

#: First discovery ring TTL.
AODV_TTL_START = 1

#: TTL increment per expanding-ring retry.
AODV_TTL_INCREMENT = 2

#: TTL at which the search becomes network-wide.
AODV_TTL_THRESHOLD = 7

#: Network-wide RREQ TTL.  A discovery gives up when its flood at this TTL
#: times out.
AODV_NETWORK_TTL = 16

#: Base wait per discovery ring, scaled by its TTL (PSM RTT-aware), seconds.
AODV_RING_WAIT_PER_TTL_S = 0.6

#: Cap on any single discovery wait, seconds.
AODV_MAX_RING_WAIT_S = 4.0

# --- Scenario defaults (paper Section 4.1) -----------------------------------

#: Number of mobile nodes.
NUM_NODES = 100

#: Arena dimensions, meters.
ARENA_W_M = 1500.0
ARENA_H_M = 300.0

#: Number of CBR connections.
NUM_CONNECTIONS = 20

#: CBR payload size, bytes.
PACKET_BYTES = 512

#: When the CBR sources start sending, seconds.
TRAFFIC_START_S = 1.0

#: Sources stop this long before the end of the run so late packets do not
#: skew PDR, seconds (capped at half the active window for short runs).
TRAFFIC_STOP_GUARD_S = 10.0

#: Simulated duration, seconds.
SIM_TIME_S = 1125.0

#: Random-waypoint maximum speed, m/s.
MAX_SPEED_MPS = 20.0

#: Random-waypoint minimum speed, m/s.  A positive floor avoids the
#: speed-decay pathology of zero-speed legs that never end.
WAYPOINT_MIN_SPEED_MPS = 0.1

#: Neighbor-table refresh period for the position service, seconds.
NEIGHBOR_REFRESH_S = 1.0

# --- Observability -----------------------------------------------------------

#: Minimum wall seconds between two renders of a live progress line
#: (``--live``); forced final updates always render.
LIVE_RENDER_INTERVAL_S = 0.25
