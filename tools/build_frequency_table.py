"""Regenerate resources/frequency.tsv.

Ranked list of common English words with Zipf-shaped per-million
frequencies (freq = K / rank). Stands in for a licensed frequency corpus;
only the relative ordering matters for the fluency features.
"""

from pathlib import Path

OUT = Path(__file__).resolve().parents[1] / "src" / "newsstyle" / "resources" / "frequency.tsv"

WORDS = """
the of and a to in is was that for it he on as with his at by are this
be from or had not but have an they which one you were all her she there
would their we him been has when who will no more if out so up said what
its about than into them can only other time new some could these two may
first then do any like my now over such our man me even most made after
also did many off before must well back through years much where your way
down should because each just those people how too good very make world
still see own men work long here get both between life being under never
day same another know while last us might great old year come since go
against came right states used take three himself few house use during
without again place american around however home small found thought went
say part once high general upon school every don does got united left
number course war until always away something fact though water less
public put think almost hand enough far took head yet government system
better set told nothing night end why called didn find going look asked
later knew point next city business case give days group toward young let
room within john christian early side social given order national british
present possible big real face others among saw best rather large
state country president million company percent week month billion
federal report political party election vote voter campaign candidate
official police court judge law bill congress senate house member leader
minister news media story article journalist press release statement
interview question answer issue problem policy plan program budget tax
economy economic market stock trade deal agreement war military attack
security border immigration health care hospital doctor patient disease
study research scientist university student teacher education child
family parent mother father woman wife husband son daughter friend
community church group organization association union worker job
employee company industry technology internet website email phone
computer software data information service customer product sale price
money bank loan debt fund investment profit cost pay increase decrease
growth rise fall drop change support oppose agree disagree claim argue
believe deny accuse blame charge arrest investigation evidence witness
trial sentence prison crime criminal victim shooting gun weapon violence
protest rally march demonstration speech statement announcement decision
ruling order approval rejection proposal debate discussion meeting
conference summit visit trip travel event ceremony celebration holiday
weather storm rain snow wind temperature climate environment energy oil
gas power electricity water food restaurant farm agriculture animal dog
cat bird fish tree plant mountain river lake ocean sea island city town
village street road bridge building apartment office store shop mall
hotel airport station train bus car truck plane flight driver passenger
accident injury damage fire explosion emergency rescue safety risk danger
warning alert response action effort result effect impact influence
reason cause purpose goal target aim objective strategy approach method
process step stage level degree amount quantity quality size length
width height weight speed distance area region zone district section
north south east west center middle top bottom front beginning
final previous current recent modern ancient future past moment minute
hour morning afternoon evening weekend season spring summer autumn
winter january february march april june july august september october
november december monday tuesday wednesday thursday friday saturday
sunday today tomorrow yesterday
""".split()


def main() -> None:
    seen = {}
    for rank, word in enumerate(WORDS, 1):
        if word not in seen:
            seen[word] = round(60000.0 / rank, 3)
    lines = ["# word<TAB>frequency per million tokens (Zipf-shaped open list)"]
    lines += [f"{w}\t{f}" for w, f in seen.items()]
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({len(seen)} words)")


if __name__ == "__main__":
    main()
