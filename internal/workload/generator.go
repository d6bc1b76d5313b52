// Package workload generates the synthetic datasets and shaped query
// workloads the assessment harness runs. Two generators mirror the
// benchmark families the surveyed systems were originally evaluated on:
// a LUBM-style university graph (deep class hierarchy, star-shaped
// entities) and a WatDiv-style e-commerce graph (heavy predicate skew,
// long follow chains). Both are deterministic given a seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/rdf"
)

// Namespace prefixes used by the generators.
const (
	UnivNS   = "http://repro.dev/lubm/"
	ShopNS   = "http://repro.dev/watdiv/"
	VocabLen = 64 // cap on literal vocabulary size
)

func uiri(local string) rdf.Term { return rdf.NewIRI(UnivNS + local) }
func siri(local string) rdf.Term { return rdf.NewIRI(ShopNS + local) }

// UniversityConfig sizes the LUBM-style generator.
type UniversityConfig struct {
	Universities       int
	DepartmentsPerUniv int
	ProfessorsPerDept  int
	StudentsPerDept    int
	CoursesPerDept     int
	Seed               int64
}

// SmallUniversity is a laptop-scale configuration: the generator emits
// 1,081 triples (1,059 distinct).
func SmallUniversity() UniversityConfig {
	return UniversityConfig{Universities: 2, DepartmentsPerUniv: 3, ProfessorsPerDept: 4, StudentsPerDept: 20, CoursesPerDept: 5, Seed: 1}
}

// MediumUniversity is the benchmark-scale configuration: the generator
// emits 26,351 triples (26,016 distinct).
func MediumUniversity() UniversityConfig {
	return UniversityConfig{Universities: 5, DepartmentsPerUniv: 8, ProfessorsPerDept: 10, StudentsPerDept: 80, CoursesPerDept: 12, Seed: 1}
}

// University vocabulary predicates.
var (
	UnivType        = rdf.NewIRI(rdf.RDFType)
	UnivName        = uiri("name")
	UnivEmail       = uiri("emailAddress")
	UnivWorksFor    = uiri("worksFor")
	UnivMemberOf    = uiri("memberOf")
	UnivAdvisor     = uiri("advisor")
	UnivTakesCourse = uiri("takesCourse")
	UnivTeacherOf   = uiri("teacherOf")
	UnivSubOrgOf    = uiri("subOrganizationOf")
	UnivDegreeFrom  = uiri("undergraduateDegreeFrom")
	UnivAge         = uiri("age")

	ClassUniversity = uiri("University")
	ClassDepartment = uiri("Department")
	ClassProfessor  = uiri("Professor")
	ClassStudent    = uiri("Student")
	ClassCourse     = uiri("Course")
)

// GenerateUniversity builds the LUBM-style dataset.
func GenerateUniversity(cfg UniversityConfig) []rdf.Triple {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []rdf.Triple
	add := func(s rdf.Term, p rdf.Term, o rdf.Term) {
		out = append(out, rdf.Triple{S: s, P: p, O: o})
	}
	intLit := func(v int) rdf.Term {
		return rdf.NewTypedLiteral(fmt.Sprint(v), rdf.XSDInteger)
	}
	for u := 0; u < cfg.Universities; u++ {
		univ := uiri(fmt.Sprintf("univ%d", u))
		add(univ, UnivType, ClassUniversity)
		add(univ, UnivName, rdf.NewLiteral(fmt.Sprintf("University %d", u)))
		for d := 0; d < cfg.DepartmentsPerUniv; d++ {
			dept := uiri(fmt.Sprintf("univ%d.dept%d", u, d))
			add(dept, UnivType, ClassDepartment)
			add(dept, UnivSubOrgOf, univ)
			add(dept, UnivName, rdf.NewLiteral(fmt.Sprintf("Department %d-%d", u, d)))

			var profs []rdf.Term
			for p := 0; p < cfg.ProfessorsPerDept; p++ {
				prof := uiri(fmt.Sprintf("univ%d.dept%d.prof%d", u, d, p))
				profs = append(profs, prof)
				add(prof, UnivType, ClassProfessor)
				add(prof, UnivWorksFor, dept)
				add(prof, UnivName, rdf.NewLiteral(fmt.Sprintf("Prof %d-%d-%d", u, d, p)))
				add(prof, UnivEmail, rdf.NewLiteral(fmt.Sprintf("prof%d@univ%d.edu", p, u)))
				add(prof, UnivAge, intLit(30+rng.Intn(40)))
				add(prof, UnivDegreeFrom, uiri(fmt.Sprintf("univ%d", rng.Intn(cfg.Universities))))
			}
			var courses []rdf.Term
			for c := 0; c < cfg.CoursesPerDept; c++ {
				course := uiri(fmt.Sprintf("univ%d.dept%d.course%d", u, d, c))
				courses = append(courses, course)
				add(course, UnivType, ClassCourse)
				add(course, UnivName, rdf.NewLiteral(fmt.Sprintf("Course %d-%d-%d", u, d, c)))
				add(profs[rng.Intn(len(profs))], UnivTeacherOf, course)
			}
			for s := 0; s < cfg.StudentsPerDept; s++ {
				stud := uiri(fmt.Sprintf("univ%d.dept%d.stud%d", u, d, s))
				add(stud, UnivType, ClassStudent)
				add(stud, UnivMemberOf, dept)
				add(stud, UnivName, rdf.NewLiteral(fmt.Sprintf("Student %d-%d-%d", u, d, s)))
				add(stud, UnivAge, intLit(18+rng.Intn(12)))
				add(stud, UnivAdvisor, profs[rng.Intn(len(profs))])
				nCourses := 1 + rng.Intn(3)
				for k := 0; k < nCourses; k++ {
					add(stud, UnivTakesCourse, courses[rng.Intn(len(courses))])
				}
			}
		}
	}
	return out
}

// ShopConfig sizes the WatDiv-style generator.
type ShopConfig struct {
	Users     int
	Products  int
	Retailers int
	Seed      int64
}

// SmallShop is a laptop-scale configuration.
func SmallShop() ShopConfig { return ShopConfig{Users: 60, Products: 40, Retailers: 6, Seed: 1} }

// MediumShop is benchmark scale.
func MediumShop() ShopConfig { return ShopConfig{Users: 600, Products: 300, Retailers: 20, Seed: 1} }

// Shop vocabulary predicates.
var (
	ShopFollows  = siri("follows")
	ShopLikes    = siri("likes")
	ShopPurchase = siri("purchased")
	ShopSells    = siri("sells")
	ShopPrice    = siri("price")
	ShopCaption  = siri("caption")
	ShopCountry  = siri("country")

	ClassUser     = siri("User")
	ClassProduct  = siri("Product")
	ClassRetailer = siri("Retailer")
)

// GenerateShop builds the WatDiv-style dataset: a social graph with
// heavy-tailed follows, product likes/purchases, and retailer catalogs.
func GenerateShop(cfg ShopConfig) []rdf.Triple {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []rdf.Triple
	add := func(s, p, o rdf.Term) { out = append(out, rdf.Triple{S: s, P: p, O: o}) }
	countries := []string{"GR", "FI", "DE", "FR", "US"}

	user := func(i int) rdf.Term { return siri(fmt.Sprintf("user%d", i)) }
	product := func(i int) rdf.Term { return siri(fmt.Sprintf("product%d", i)) }

	for i := 0; i < cfg.Products; i++ {
		p := product(i)
		add(p, UnivType, ClassProduct)
		add(p, ShopPrice, rdf.NewTypedLiteral(fmt.Sprint(5+rng.Intn(500)), rdf.XSDInteger))
		add(p, ShopCaption, rdf.NewLiteral(fmt.Sprintf("Product no. %d", i)))
	}
	for i := 0; i < cfg.Retailers; i++ {
		r := siri(fmt.Sprintf("retailer%d", i))
		add(r, UnivType, ClassRetailer)
		add(r, ShopCountry, rdf.NewLiteral(countries[rng.Intn(len(countries))]))
		n := 3 + rng.Intn(cfg.Products/2+1)
		for k := 0; k < n; k++ {
			add(r, ShopSells, product(rng.Intn(cfg.Products)))
		}
	}
	for i := 0; i < cfg.Users; i++ {
		u := user(i)
		add(u, UnivType, ClassUser)
		add(u, ShopCountry, rdf.NewLiteral(countries[rng.Intn(len(countries))]))
		// Preferential attachment-ish: earlier users are followed more.
		nFollows := 1 + rng.Intn(4)
		for k := 0; k < nFollows; k++ {
			target := rng.Intn(i + 1)
			if target != i {
				add(u, ShopFollows, user(target))
			}
		}
		nLikes := rng.Intn(5)
		for k := 0; k < nLikes; k++ {
			add(u, ShopLikes, product(rng.Intn(cfg.Products)))
		}
		if rng.Intn(3) == 0 {
			add(u, ShopPurchase, product(rng.Intn(cfg.Products)))
		}
	}
	return out
}
