"""Zone names shared by the zone workloads.

Kept free of imports: fleet churn names its zones from here without loading
the zone-program scaffold of :mod:`repro.workloads.zonal`.
"""


def zone_name(index: int) -> str:
    return f"zone-{index}"
