"""The HTML templates of the web interface (paper Figure 2, §6.1).

Header/footer templates wrap every page; the HLE page includes one
rendering of the analysis template per ANA tuple, exactly as described:
"a request to display an HLE involves loading and filling in HLE
header/footer templates and an analysis template for each ANA tuple
associated with that HLE".
"""

from __future__ import annotations

from .templates import Template, TemplateRegistry

HEADER = """<!DOCTYPE html>
<html><head><title>HEDC - {{ title }}</title>
<style>body{font-family:sans-serif} table{border-collapse:collapse}
td,th{border:1px solid #999;padding:2px 6px}</style>
<script>/* navigation helpers */function nav(u){location.href=u;}</script>
</head><body>
<div class="banner"><img src="/static/logo.pgm" alt="HEDC"/>
<h1>RHESSI Experimental Data Center</h1>
{% if user %}<p>logged in as {{ user.login }} ({{ user.group }})</p>
{% else %}<p><a href="/hedc/login">log in</a> for advanced features</p>{% endif %}
</div><hr/>
"""

FOOTER = """<hr/><div class="footer">
<a href="/hedc/catalogs">catalogs</a> |
<a href="/hedc/search">search</a> |
<img src="/static/nav.pgm" alt="nav"/>
HEDC &#169; ETH Z&#252;rich</div></body></html>
"""

CATALOG_LIST = """{% include header %}
<h2>Catalogs</h2>
<table><tr><th>name</th><th>members</th><th>description</th></tr>
{% for cat in catalogs %}
<tr><td><a href="/hedc/catalog?id={{ cat.catalog_id }}">{{ cat.name }}</a></td>
<td>{{ cat.n_members }}</td><td>{{ cat.description }}</td></tr>
{% endfor %}
</table>
{% include footer %}
"""

CATALOG_PAGE = """{% include header %}
<h2>Catalog: {{ catalog.name }}</h2>
<table><tr><th>event</th><th>kind</th><th>start</th><th>peak rate</th><th>analyses</th></tr>
{% for hle in hles %}
<tr><td><a href="/hedc/hle?id={{ hle.hle_id }}">{{ hle.title }}</a></td>
<td>{{ hle.kind }}</td><td>{{ hle.start_time }}</td>
<td>{{ hle.peak_rate }}</td><td>{{ hle.n_analyses }}</td></tr>
{% endfor %}
</table>
{% include footer %}
"""

HLE_HEADER = """{% include header %}
<h2>{{ hle.title }}</h2>
<table>
<tr><th>kind</th><td>{{ hle.kind }}</td></tr>
<tr><th>window</th><td>{{ hle.start_time }} - {{ hle.end_time }} s</td></tr>
<tr><th>peak rate</th><td>{{ hle.peak_rate }} counts/s</td></tr>
<tr><th>mean energy</th><td>{{ hle.mean_energy_kev }} keV</td></tr>
<tr><th>significance</th><td>{{ hle.significance }}</td></tr>
<tr><th>analyses</th><td>{{ n_analyses }}</td></tr>
<tr><th>in catalogs</th><td>{{ n_catalogs }}</td></tr>
</table>
<p>{{ n_similar }} similar events |
<a href="/hedc/analyze?hle={{ hle.hle_id }}">run analysis</a> |
{% for f in data_files %}<a href="/hedc/download?item={{ f.item_id }}&path={{ f.path }}">download</a> {% endfor %}
</p>
<h3>Analyses</h3>
"""

ANALYSIS = """<div class="ana">
<h4>{{ ana.algorithm }} #{{ ana.ana_id }}</h4>
<table><tr><th>status</th><td>{{ ana.status }}</td></tr>
<tr><th>executed on</th><td>{{ ana.executed_on }}</td></tr>
<tr><th>photons used</th><td>{{ ana.n_photons_used }}</td></tr></table>
{% for img in ana_images %}<img src="{{ img }}" alt="analysis image"/>{% endfor %}
<p><a href="/hedc/ana?id={{ ana.ana_id }}">details</a></p>
</div>
"""

ANA_PAGE = """{% include header %}
<h2>Analysis {{ ana.ana_id }}: {{ ana.algorithm }}</h2>
<table>
<tr><th>HLE</th><td><a href="/hedc/hle?id={{ ana.hle_id }}">{{ ana.hle_id }}</a></td></tr>
<tr><th>parameters</th><td>time bin {{ ana.time_bin_s }} s, pixels {{ ana.n_pixels }}</td></tr>
<tr><th>accounting</th><td>{{ ana.n_photons_used }} photons, {{ ana.output_bytes }} bytes out</td></tr>
<tr><th>public</th><td>{{ ana.public }}</td></tr>
</table>
{% for img in images %}<img src="{{ img }}" alt="product"/>{% endfor %}
{% include footer %}
"""

LOGIN_PAGE = """{% include header %}
<h2>Log in</h2>
{% if error %}<p class="error">{{ error }}</p>{% endif %}
<form method="post" action="/hedc/login">
<input name="login"/><input name="password" type="password"/>
<input type="submit" value="log in"/></form>
{% include footer %}
"""

SEARCH_PAGE = """{% include header %}
<h2>Search events</h2>
<form action="/hedc/search"><input name="kind" placeholder="kind"/>
<input name="min_rate" placeholder="min peak rate"/>
<input type="submit" value="search"/></form>
{% if sql_allowed %}<form action="/hedc/search"><textarea name="sql"></textarea>
<input type="submit" value="run SQL"/></form>{% endif %}
<table><tr><th>event</th><th>kind</th><th>peak rate</th></tr>
{% for hle in results %}
<tr><td><a href="/hedc/hle?id={{ hle.hle_id }}">{{ hle.title }}</a></td>
<td>{{ hle.kind }}</td><td>{{ hle.peak_rate }}</td></tr>
{% endfor %}
</table>
{% include footer %}
"""


#: Each page compiled once per process, when this module is imported.  A
#: ``Template`` is stateless, so every registry shares these objects.
_compiled = {name: Template(source) for name, source in (
    ("header", HEADER), ("footer", FOOTER), ("catalog_list", CATALOG_LIST),
    ("catalog_page", CATALOG_PAGE), ("hle_header", HLE_HEADER), ("analysis", ANALYSIS),
    ("ana_page", ANA_PAGE), ("login_page", LOGIN_PAGE), ("search_page", SEARCH_PAGE))}


def build_registry() -> TemplateRegistry:
    """The standard HEDC template set, ready for the servlets; it compiles
    nothing."""
    registry = TemplateRegistry()
    for name, template in _compiled.items():
        registry.register(name, template)
    return registry
