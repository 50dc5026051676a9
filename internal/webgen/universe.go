package webgen

import "net/netip"

// This file encodes the published marginal distributions of the paper's
// dataset (§3.3, Tables 2–7, Table 9). The generator samples from these
// so that the synthetic corpus reproduces the paper's aggregate shape.

// provider is a hosting/CDN organization with one or more ASNs.
type provider struct {
	Name   string
	ASN    uint32
	Prefix string // IPv4 allocation the generator assigns hosts from
	// SiteShare is the share of *websites* served by the provider
	// (Table 9, %; zero for providers not in that table).
	SiteShare float64
}

// providers are the paper's top-10 request destinations (Table 2). The
// remaining ~36% of requests go to a long tail generated separately.
var providers = []provider{
	{Name: "Google", ASN: 15169, Prefix: "8.8.0.0/16", SiteShare: 5.09},
	{Name: "Cloudflare", ASN: 13335, Prefix: "104.16.0.0/16", SiteShare: 24.74},
	{Name: "Amazon-02", ASN: 16509, Prefix: "52.84.0.0/16", SiteShare: 7.75},
	{Name: "Amazon-AES", ASN: 14618, Prefix: "54.144.0.0/16", SiteShare: 0},
	{Name: "Fastly", ASN: 54113, Prefix: "151.101.0.0/16", SiteShare: 1.2},
	{Name: "Akamai", ASN: 16625, Prefix: "23.32.0.0/16", SiteShare: 0.9},
	{Name: "Facebook", ASN: 32934, Prefix: "157.240.0.0/16", SiteShare: 0},
	{Name: "Akamai-Intl", ASN: 20940, Prefix: "2.16.0.0/16", SiteShare: 0.4},
	{Name: "OVH", ASN: 16276, Prefix: "51.68.0.0/16", SiteShare: 2.0},
	{Name: "Hetzner", ASN: 24940, Prefix: "88.198.0.0/16", SiteShare: 2.5},
}

// tailASNBase is the first ASN used for long-tail networks; the dataset
// saw 13,316 distinct ASes.
const tailASNBase = 400000

// popularHost is a popular third-party subresource hostname (Table 7).
type popularHost struct {
	Host     string
	Provider string  // Provider.Name owning it
	Share    float64 // share of all requests, %
}

// popularHosts are the Table 7 top-10 subresource hostnames; together
// they account for 12.5% of requests.
var popularHosts = []popularHost{
	{"fonts.gstatic.com", "Google", 2.23},
	{"www.google-analytics.com", "Google", 1.67},
	{"www.facebook.com", "Facebook", 1.58},
	{"www.google.com", "Google", 1.52},
	{"tpc.googlesyndication.com", "Google", 1.21},
	{"cm.g.doubleclick.net", "Google", 1.18},
	{"googleads.g.doubleclick.net", "Google", 1.15},
	{"pagead2.googlesyndication.com", "Google", 1.12},
	{"fonts.googleapis.com", "Google", 0.97},
	{"cdn.shopify.com", "Cloudflare", 0.87},
}

// secondaryHosts are provider-bound third-party hostnames giving the
// remaining Table 2 providers their request share (e.g. Amazon-AES and
// Fastly host media and library content without hosting many base
// pages themselves).
var secondaryHosts = []popularHost{
	{"media.amazon-aes.example", "Amazon-AES", 5.62},
	{"cdn.fastly-pop.example", "Fastly", 3.57},
	{"img.akamaized.example", "Akamai", 3.02},
	{"eu-cdn.akamai-intl.example", "Akamai-Intl", 1.62},
	{"static.ovh-hosted.example", "OVH", 1.52},
	{"assets.hetzner-hosted.example", "Hetzner", 1.30},
}

// providerPopularHosts lists, per provider, hostnames commonly used by
// sites on that provider (Table 9's candidate SAN additions).
var providerPopularHosts = map[string][]string{
	"Cloudflare": {
		"cdnjs.cloudflare.com",
		"sni.cloudflaressl.com",
		"ajax.cloudflare.com",
		"cdn.jsdelivr.net",
	},
	"Amazon-02": {
		"d1.cloudfront.net",
		"script.hotjar.com",
		"assets.s3.amazonaws.com",
	},
	"Google": {
		"www.google-analytics.com",
		"www.googletagmanager.com",
		"fonts.gstatic.com",
		"fonts.googleapis.com",
	},
}

// contentType is a weighted response content type (Table 5).
type contentType struct {
	Mime  string
	Share float64 // % of requests
	// MeanBytes parameterizes body sizes.
	MeanBytes int64
	// RenderBlocking marks types on the critical path.
	RenderBlocking bool
}

// contentTypes are the Table 5 top-12 plus an "other" bucket.
var contentTypes = []contentType{
	{"application/javascript", 14.26, 28_000, true},
	{"image/jpeg", 13.02, 45_000, false},
	{"image/png", 10.67, 18_000, false},
	{"text/html", 10.32, 22_000, true},
	{"image/gif", 8.97, 3_000, false},
	{"text/css", 7.79, 14_000, true},
	{"text/javascript", 6.76, 25_000, true},
	{"application/json", 3.53, 4_000, false},
	{"application/x-javascript", 3.36, 24_000, true},
	{"font/woff2", 2.68, 32_000, false},
	{"image/webp", 2.67, 26_000, false},
	{"text/plain", 2.52, 2_000, false},
	{"other/other", 13.45, 8_000, false},
}

// protocol is a weighted application protocol (Table 3).
type protocol struct {
	Name  string
	Share float64
}

// protocols are the Table 3 request protocol mix.
var protocols = []protocol{
	{"h2", 73.64},
	{"http/1.1", 19.09},
	{"h3", 0.34},
	{"quic", 0.07},
	{"http/1.0", 0.03},
	{"unknown", 6.83},
}

// secureShare is the fraction of requests over HTTPS (Table 3, bottom).
const secureShare = 0.9853

// issuer is a weighted certificate issuer (Table 4).
type issuer struct {
	Name  string
	Share float64 // % of certificate validations
}

// issuers are the Table 4 top-10 plus a tail bucket.
var issuers = []issuer{
	{"Google Trust Services CA 101", 25.86},
	{"Let's Encrypt (R3)", 9.58},
	{"Amazon", 9.15},
	{"Cloudflare Inc ECC CA-3", 7.61},
	{"DigiCert SHA2 High Assurance Server CA", 7.05},
	{"DigiCert SHA2 Secure Server CA", 6.95},
	{"Sectigo RSA DV Secure Server CA", 6.91},
	{"GoDaddy Secure Certificate Authority - G2", 3.11},
	{"DigiCert TLS RSA SHA256 2020 CA1", 2.85},
	{"GeoTrust RSA CA 2018", 1.59},
	{"Other Issuers", 28.34},
}

// providerByName indexes Providers.
var providerByName = func() map[string]*provider {
	m := make(map[string]*provider, len(providers))
	for i := range providers {
		m[providers[i].Name] = &providers[i]
	}
	return m
}()

// providerPrefixes holds every provider's Prefix, parsed once, by name.
var providerPrefixes = func() map[string]netip.Prefix {
	m := make(map[string]netip.Prefix, len(providers))
	for _, p := range providers {
		m[p.Name] = netip.MustParsePrefix(p.Prefix)
	}
	return m
}()

// issuerForProvider maps hosting providers to the issuer of certificates
// they typically provision.
var issuerForProvider = map[string]string{
	"Google":      "Google Trust Services CA 101",
	"Cloudflare":  "Cloudflare Inc ECC CA-3",
	"Amazon-02":   "Amazon",
	"Amazon-AES":  "Amazon",
	"Fastly":      "Let's Encrypt (R3)",
	"Akamai":      "DigiCert SHA2 Secure Server CA",
	"Akamai-Intl": "DigiCert SHA2 Secure Server CA",
	"Facebook":    "DigiCert SHA2 High Assurance Server CA",
}
