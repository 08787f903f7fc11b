"""How big can an ANY answer get, and when does it quietly grow?

Builds a 30-day inventory of the records a signed zone answers with. During
a mid-month key rollover the zone serves a second signature per record set,
so every ANY response steps up by a few hundred bytes, holds for ten days,
then drops back. The plateau detector finds that window from the size
series alone; the ranking compares each name's response against the ANY
request that elicits it.
"""

from datetime import date, timedelta

from dnsamp import sizing


def day(i: int) -> str:
    return (date(2019, 6, 1) + timedelta(days=i)).isoformat()


def zone_day(owner: str, index: int, rollover: range) -> sizing.RecordSet:
    records = [
        sizing.ZoneRecord("A", 300, 4),
        sizing.ZoneRecord("TXT", 300, 180),
        sizing.ZoneRecord("DNSKEY", 3600, 260),
        sizing.ZoneRecord("RRSIG", 300, 286),
    ]
    if index in rollover:   # double signatures while both keys are live
        records.append(sizing.ZoneRecord("RRSIG", 300, 286))
        records.append(sizing.ZoneRecord("DNSKEY", 3600, 260))
    return sizing.RecordSet(owner=owner, records=tuple(records), day=day(index))


def main() -> None:
    rollover = range(12, 22)            # ten days with doubled key material
    inventory = [zone_day("signed.example.", i, rollover) for i in range(30)]
    inventory += [
        sizing.RecordSet("tiny.example.",
                         (sizing.ZoneRecord("A", 300, 4),), day=day(i))
        for i in range(30)
    ]

    print("=== daily response-size series ===")
    series = sizing.daily_series(
        (rs.day, sizing.estimate_any_response_size(rs)) for rs in inventory)
    signed = series["signed.example."]
    values = [est for _, est in signed]
    print(f"signed.example. spans {values[0]} -> {max(values)} bytes "
          f"(step of {max(values) - values[0]})")

    plateaus = sizing.detect_rollover_plateaus(values, min_days=7,
                                               min_step_bytes=256)
    print(f"{len(plateaus)} plateau(s) found:")
    for p in plateaus:
        print(f"  {signed[p.start_index][0]} .. {signed[p.end_index][0]}: "
              f"{p.length} days at {p.level} bytes (+{p.height})")
    print(f"planted rollover window: {day(rollover.start)} .. "
          f"{day(rollover.stop - 1)}")

    print()
    print("=== amplification ranking (rollover day) ===")
    snapshot = [rs for rs in inventory if rs.day == day(15)]
    estimates = [sizing.estimate_any_response_size(rs) for rs in snapshot]
    for est in estimates:
        note = "  ** needs TCP/EDNS **" if est.exceeds_edns else ""
        print(f"  {est.owner:<18} {est.est_bytes:>5} bytes{note}")

    ranking = sizing.rank_amplification(estimates,
                                        reference_names=["tiny.example."])
    print(f"names larger than the reference: {ranking.count_above_reference}")
    for owner, factor in sorted(ranking.factors.items(),
                                key=lambda kv: -kv[1]):
        req = sizing.request_size(owner)
        print(f"  {owner:<18} amplification x{factor:.1f} "
              f"(request {req} bytes)")


if __name__ == "__main__":
    main()
